//! Jinn — the synthesized dynamic JNI bug detector.
//!
//! `Jinn` interprets the check table produced by [`crate::synthesize`]:
//! at every language transition it executes the synthesized checks,
//! transitions its state-machine encodings (the paper's thread-local
//! reference sets, ID signature tables, tallies and frame mirrors), and
//! reports a [`Violation`] — thrown as a `jinn.JNIAssertionFailure` — the
//! moment an entity enters an error state.
//!
//! Reference state lives in generation-indexed cells: one table per
//! thread for locals, one for globals and one for weak globals, each
//! indexed by handle slot and holding the slot's newest generation with
//! its `Live`/`Released` state. An older generation is dangling, so a
//! release overwrites state instead of leaving a tombstone, and the
//! tables stay bounded by the VM's live-slot high-water mark. The ID
//! signature tables are sets of the method and field IDs issued to native
//! code; names and signatures are read from the VM's append-only class
//! registry.
//!
//! Jinn never asks the VM whether a reference is valid; like the real
//! tool, it maintains its own encodings and detects danglingness from the
//! acquire/release history it observed. (The single exception is the
//! *adoption* of references acquired before Jinn was attached, which are
//! verified against the VM once and then tracked — this is what the JVMTI
//! start-up hook gives the real Jinn for free.)

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jinn_obs::{FsmOutcome, LabelId, Recorder};
use jinn_spec::{Check, EntityCallMode};
use minijni::registry::Op;
use minijni::{CallCx, FuncId, Interpose, JniArg, JniRet, Report, ReportAction, Violation};
use minijvm::class::{FieldInfo, MethodInfo};
use minijvm::{
    ClassId, FieldId, FieldType, JRef, JValue, Jvm, MethodId, MethodSig, ObjectId, PinId, PinKind,
    RefKind, ThreadId, DEFAULT_LOCAL_CAPACITY,
};

use crate::synth::CheckTable;

/// Counters Jinn keeps about its own work (for the overhead experiments).
/// This is a point-in-time copy; the live counters are the atomics in
/// [`StatsCell`], read via [`StatsCell::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JinnStats {
    /// Synthesized checks executed.
    pub checks_executed: u64,
    /// Violations reported.
    pub violations: u64,
    /// Pre-attach references adopted instead of flagged (kept at zero by
    /// well-formed harnesses).
    pub adopted_refs: u64,
}

/// The live, atomically-updated counters behind [`SharedStats`]. Atomic
/// so a `Jinn` moved to a worker thread can be observed from the driver
/// thread without locks (and so `Jinn` itself is `Send`).
#[derive(Debug, Default)]
pub struct StatsCell {
    checks_executed: AtomicU64,
    violations: AtomicU64,
    adopted_refs: AtomicU64,
}

impl StatsCell {
    /// Synthesized checks executed so far.
    pub fn checks_executed(&self) -> u64 {
        self.checks_executed.load(Ordering::Relaxed)
    }

    /// Violations reported so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Pre-attach references adopted so far.
    pub fn adopted_refs(&self) -> u64 {
        self.adopted_refs.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> JinnStats {
        JinnStats {
            checks_executed: self.checks_executed(),
            violations: self.violations(),
            adopted_refs: self.adopted_refs(),
        }
    }
}

/// Shared handle to the live [`StatsCell`], usable after the checker has
/// been boxed into a session — including from another thread.
pub type SharedStats = Arc<StatsCell>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefState {
    Live,
    Released,
}

/// One table of reference state, indexed by handle slot. A cell holds the
/// newest generation of its slot that Jinn saw acquired or adopted, and
/// that generation's state; an older generation of the slot is dangling.
/// Cells are written only for slots the VM issued (an acquire, or an
/// adoption the VM vouched for), never on a lookup, so a table is bounded
/// by the VM's live-slot high-water mark.
#[derive(Debug, Default)]
struct RefCells(Vec<Option<(u32, RefState)>>);

impl RefCells {
    /// The state of `r`: its cell's state at the same generation,
    /// `Released` at an older one, `None` for an untracked slot or a
    /// newer generation (the caller's adoption path).
    fn state(&self, r: JRef) -> Option<RefState> {
        match self.0.get(r.slot() as usize).copied().flatten() {
            Some((generation, state)) if generation == r.generation() => Some(state),
            Some((generation, _)) if generation > r.generation() => Some(RefState::Released),
            _ => None,
        }
    }

    fn set(&mut self, r: JRef, state: RefState) {
        let slot = r.slot() as usize;
        if slot >= self.0.len() {
            self.0.resize(slot + 1, None);
        }
        self.0[slot] = Some((r.generation(), state));
    }

    /// Releases a frame entry, unless its slot has since moved on to a
    /// newer generation.
    fn release(&mut self, (slot, generation): (u32, u32)) {
        if let Some(Some((g, state))) = self.0.get_mut(slot as usize) {
            if *g == generation {
                *state = RefState::Released;
            }
        }
    }

    fn live(&self) -> usize {
        self.0
            .iter()
            .filter(|c| matches!(c, Some((_, RefState::Live))))
            .count()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    NativeEntry,
    Explicit,
}

/// A local frame mirror. Each entry is the (slot, generation) it acquired.
#[derive(Debug)]
struct Frame {
    kind: FrameKind,
    capacity: usize,
    refs: Vec<(u32, u32)>,
}

#[derive(Debug, Default)]
struct LocalTracker {
    frames: Vec<Frame>,
    cells: RefCells,
}

impl LocalTracker {
    fn base(&mut self) -> &mut Frame {
        if self.frames.is_empty() {
            self.frames.push(Frame {
                kind: FrameKind::NativeEntry,
                capacity: DEFAULT_LOCAL_CAPACITY,
                refs: Vec::new(),
            });
        }
        self.frames.first_mut().expect("just ensured")
    }

    fn current(&mut self) -> &mut Frame {
        self.base();
        self.frames.last_mut().expect("non-empty")
    }

    fn acquire(&mut self, r: JRef) {
        self.current().refs.push((r.slot(), r.generation()));
        self.cells.set(r, RefState::Live);
    }

    fn release_frame(&mut self) {
        let refs = if self.frames.len() <= 1 {
            // Keep the base frame; release its refs instead.
            std::mem::take(&mut self.base().refs)
        } else {
            self.frames.pop().expect("len checked").refs
        };
        for entry in refs {
            self.cells.release(entry);
        }
    }
}

/// Configuration of a synthesized checker.
///
/// The defaults reproduce the paper's Jinn exactly. The knobs expose the
/// paper's own discussion points: `pedantic_visibility` turns on the
/// Section 6.5 "correctness gray zone" check (C code accessing private
/// Java members -- entrenched practice, so off by default), and
/// `disabled_machines` ablates individual machines (used by the
/// `ablation` experiment to attribute checking cost).
#[derive(Debug, Clone, Default)]
pub struct JinnConfig {
    /// Also flag access to private members from native code.
    pub pedantic_visibility: bool,
    /// Machines whose synthesized checks are dropped.
    pub disabled_machines: Vec<&'static str>,
}

#[derive(Debug, Clone, Copy)]
struct PinInfo {
    kind: PinKind,
    released: bool,
}

/// The Jinn dynamic checker. Attach with [`install`].
pub struct Jinn {
    table: CheckTable,
    /// When false, wrappers are interposed and traversed but the analysis
    /// bodies are skipped — the "Interposing" configuration of Table 3,
    /// which isolates the framework overhead from the checking overhead.
    checks_enabled: bool,
    config: JinnConfig,
    stats: SharedStats,
    /// IDs returned to native code; their names and signatures are read
    /// from the VM's append-only class registry.
    methods: HashSet<MethodId>,
    fields: HashSet<FieldId>,
    pins: HashMap<PinId, PinInfo>,
    criticals: HashMap<ThreadId, Vec<(ObjectId, u32)>>,
    monitors: HashMap<(ThreadId, ObjectId), u32>,
    globals: RefCells,
    weak_globals: RefCells,
    locals: HashMap<ThreadId, LocalTracker>,
    recorder: Recorder,
    labels: ObsLabels,
}

/// The checker's interned trace labels, resolved once when a recorder is
/// attached so the per-event record path carries only dense ids.
#[derive(Debug, Default)]
struct ObsLabels {
    local_ref: LabelId,
    global_ref: LabelId,
    acquire: LabelId,
    release: LabelId,
    use_after_release: LabelId,
    checks_executed: LabelId,
    locals_acquired: LabelId,
}

/// Packs a reference's identity bits into the opaque numeric entity key
/// recorded with its transitions. References are short-lived and each
/// acquisition mints a fresh generation, so a label cache would never
/// hit; the packed key costs a few shifts instead of a `format!` and an
/// intern-table round-trip per event. Equal references pack equally,
/// which is what forensics matching needs. Slot and generation are
/// truncated to 22 bits each — far above what any workload reaches, and
/// a collision only blurs a forensics relevance filter.
fn entity_key(r: &JRef) -> u64 {
    let kind = match r.kind() {
        RefKind::Local => 0u64,
        RefKind::Global => 1,
        RefKind::WeakGlobal => 2,
        RefKind::Null => 3,
    };
    (kind << 60)
        | (u64::from(r.owner().0) << 44)
        | (u64::from(r.slot() & 0x3f_ffff) << 22)
        | u64::from(r.generation() & 0x3f_ffff)
}

// The whole point of the Arc/atomic stats backend: a synthesized checker
// can be constructed on the driver thread and moved into a worker.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Jinn>();
};

impl std::fmt::Debug for Jinn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Jinn")
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl Default for Jinn {
    fn default() -> Self {
        Jinn::new()
    }
}

impl Jinn {
    /// Synthesizes a fresh checker from the eleven machine specifications.
    pub fn new() -> Jinn {
        Jinn::with_config(JinnConfig::default())
    }

    /// Synthesizes a checker with explicit configuration. The expansion
    /// itself is memoized process-wide ([`crate::synthesize_cached`]);
    /// each checker clones the table so ablation can prune its own copy.
    pub fn with_config(config: JinnConfig) -> Jinn {
        let mut table = crate::synth::synthesize_cached().0.clone();
        if !config.disabled_machines.is_empty() {
            let disabled = config.disabled_machines.clone();
            table.retain_machines(|m| !disabled.contains(&m));
        }
        Jinn {
            table,
            checks_enabled: true,
            config,
            stats: Arc::new(StatsCell::default()),
            methods: HashSet::new(),
            fields: HashSet::new(),
            pins: HashMap::new(),
            criticals: HashMap::new(),
            monitors: HashMap::new(),
            globals: RefCells::default(),
            weak_globals: RefCells::default(),
            locals: HashMap::new(),
            recorder: Recorder::disabled(),
            labels: ObsLabels::default(),
        }
    }

    /// Attaches an observability recorder: machine error transitions and
    /// check-volume counters are recorded from then on. [`install`] wires
    /// this automatically from the session's recorder. The handful of
    /// machine, transition, and counter names the checker records are
    /// interned here, once.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.labels = ObsLabels {
            local_ref: recorder.intern("local-reference"),
            global_ref: recorder.intern("global-reference"),
            acquire: recorder.intern("Acquire"),
            release: recorder.intern("Release"),
            use_after_release: recorder.intern("UseAfterRelease"),
            checks_executed: recorder.intern("checks.executed"),
            locals_acquired: recorder.intern("locals.acquired"),
        };
        self.recorder = recorder;
    }

    /// A shared handle to the checker's statistics.
    pub fn stats_handle(&self) -> SharedStats {
        Arc::clone(&self.stats)
    }

    /// An interposing-but-not-checking Jinn: the wrappers run, the check
    /// tables are traversed, but no analysis executes (Table 3's
    /// "Interposing" column).
    pub fn interpose_only() -> Jinn {
        let mut jinn = Jinn::new();
        jinn.checks_enabled = false;
        jinn
    }

    fn violation(
        &self,
        machine: &'static str,
        error_state: &'static str,
        function: &str,
        message: String,
        stack: &[String],
    ) -> Report {
        self.stats.violations.fetch_add(1, Ordering::Relaxed);
        if self.recorder.is_enabled() {
            // Cold path (violations are rare): interning per event keeps
            // it simple.
            let machine_label = self.recorder.intern(machine);
            let state_label = self.recorder.intern(error_state);
            self.recorder.fsm_transition_id(
                jinn_obs::event::NO_THREAD,
                machine_label,
                state_label,
                FsmOutcome::Error,
                None,
            );
        }
        Report::new(
            Violation {
                machine,
                error_state,
                function: function.to_string(),
                message,
                // Innermost frame first, as in a Java stack trace.
                backtrace: stack.iter().rev().cloned().collect(),
            },
            ReportAction::ThrowException,
        )
    }

    // ---- local reference helpers ------------------------------------

    fn tracker(&mut self, thread: ThreadId) -> &mut LocalTracker {
        self.locals.entry(thread).or_default()
    }

    /// Checks a use of a local reference; returns an error message on
    /// violation.
    fn check_local_use(&mut self, jvm: &Jvm, thread: ThreadId, r: JRef) -> Option<String> {
        let failure = if r.owner() != thread {
            Some(format!(
                "local reference created on thread-{} used on {}",
                r.owner().0,
                thread
            ))
        } else {
            match self.tracker(thread).cells.state(r) {
                Some(RefState::Live) => None,
                Some(RefState::Released) => Some("Error: dangling local reference".to_string()),
                None => {
                    // Pre-attach reference: adopt it if the VM vouches for it.
                    if jvm.resolve(thread, r).map(|o| o.is_some()).unwrap_or(false) {
                        self.stats.adopted_refs.fetch_add(1, Ordering::Relaxed);
                        let tracker = self.tracker(thread);
                        tracker.base().refs.push((r.slot(), r.generation()));
                        tracker.cells.set(r, RefState::Live);
                        None
                    } else {
                        Some("Error: dangling local reference (never acquired)".to_string())
                    }
                }
            }
        };
        if failure.is_some() {
            self.record_ref_error(self.labels.local_ref, thread, r);
        }
        failure
    }

    /// The cell table of a global or weak-global reference.
    fn global_cells(&mut self, r: JRef) -> &mut RefCells {
        if r.kind() == RefKind::WeakGlobal {
            &mut self.weak_globals
        } else {
            &mut self.globals
        }
    }

    fn check_global_use(&mut self, jvm: &Jvm, thread: ThreadId, r: JRef) -> Option<String> {
        let failure = match self.global_cells(r).state(r) {
            Some(RefState::Live) => None,
            Some(RefState::Released) => Some(format!("Error: dangling {} reference", r.kind())),
            None => {
                if jvm.resolve(thread, r).is_ok() {
                    self.stats.adopted_refs.fetch_add(1, Ordering::Relaxed);
                    self.global_cells(r).set(r, RefState::Live);
                    None
                } else {
                    Some(format!(
                        "Error: dangling {} reference (never acquired)",
                        r.kind()
                    ))
                }
            }
        };
        if failure.is_some() {
            self.record_ref_error(self.labels.global_ref, thread, r);
        }
        failure
    }

    /// Emits an entity-tagged successful transition (acquire/release) into
    /// the trace ring and the per-machine metrics. `machine` and
    /// `transition` are the ids cached in [`ObsLabels`].
    fn record_ref_moved(&self, machine: LabelId, thread: ThreadId, transition: LabelId, r: &JRef) {
        self.recorder.fsm_transition_keyed(
            thread.0,
            machine,
            transition,
            FsmOutcome::Moved,
            entity_key(r),
        );
    }

    /// Emits an entity-tagged error transition into the trace ring so a
    /// forensics capture can name the failing reference. The label is
    /// the spec's own transition name, `UseAfterRelease`. Error events
    /// deliberately do not feed the per-machine `Moved` tallies — the
    /// violation path counts them.
    fn record_ref_error(&self, machine: LabelId, thread: ThreadId, r: JRef) {
        self.recorder.fsm_transition_keyed(
            thread.0,
            machine,
            self.labels.use_after_release,
            FsmOutcome::Error,
            entity_key(&r),
        );
    }

    fn check_ref_use(
        &mut self,
        jvm: &Jvm,
        thread: ThreadId,
        r: JRef,
        machine_wanted: &'static str,
    ) -> Option<String> {
        match (r.kind(), machine_wanted) {
            (RefKind::Null, _) => None,
            (RefKind::Local, "local-reference") => self.check_local_use(jvm, thread, r),
            (RefKind::Global | RefKind::WeakGlobal, "global-reference") => {
                self.check_global_use(jvm, thread, r)
            }
            _ => None, // the other machine owns this kind
        }
    }

    // ---- entity typing helpers ---------------------------------------

    fn check_args_against_sig(
        &self,
        jvm: &Jvm,
        thread: ThreadId,
        sig: &MethodSig,
        actuals: &[JValue],
    ) -> Option<String> {
        if sig.params().len() != actuals.len() {
            return Some(format!(
                "{} actual arguments for {} formals",
                actuals.len(),
                sig.params().len()
            ));
        }
        for (i, (formal, actual)) in sig.params().iter().zip(actuals).enumerate() {
            match (formal, actual) {
                (FieldType::Prim(p), v) => {
                    if v.prim_type() != Some(*p) {
                        return Some(format!(
                            "argument {i} has the wrong primitive type (expected {p})"
                        ));
                    }
                }
                (ft, JValue::Ref(r)) => {
                    if r.is_null() {
                        continue;
                    }
                    if let Ok(Some(oop)) = jvm.resolve(thread, *r) {
                        let actual_class = jvm.class_of(oop);
                        if let Some(expected) = jvm.registry().class_for_type(ft) {
                            if !jvm.registry().is_assignable(actual_class, expected) {
                                return Some(format!(
                                    "argument {i} is a {} but the formal is {}",
                                    jvm.registry().class(actual_class).dotted_name(),
                                    ft
                                ));
                            }
                        }
                    }
                }
                (_, v) => {
                    return Some(format!(
                        "argument {i} is a primitive {v} where a reference is expected"
                    ));
                }
            }
        }
        None
    }

    fn resolve_class_arg(&self, jvm: &Jvm, thread: ThreadId, r: JRef) -> Option<ClassId> {
        let oop = jvm.resolve(thread, r).ok().flatten()?;
        jvm.class_of_mirror(oop)
    }

    #[allow(clippy::too_many_lines)]
    fn check_entity_call(
        &self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        mode: EntityCallMode,
    ) -> Option<String> {
        let (obj_idx, clazz_idx, mid_idx, args_idx): (Option<usize>, Option<usize>, usize, usize) =
            match mode {
                EntityCallMode::Virtual => (Some(0), None, 1, 2),
                EntityCallMode::Nonvirtual => (Some(0), Some(1), 2, 3),
                EntityCallMode::Static | EntityCallMode::Constructor => (None, Some(0), 1, 2),
            };
        let mid = match cx.args.get(mid_idx) {
            Some(JniArg::Method(m)) => *m,
            _ => return None,
        };
        let Some(method) = self.issued_method(jvm, mid) else {
            return Some(format!("method ID {mid} was never issued by the JVM"));
        };
        // The Section 6.5 gray zone, opt-in: calling private methods.
        if self.config.pedantic_visibility
            && method.flags.visibility == minijvm::Visibility::Private
        {
            return Some(format!(
                "call to private method {} from native code",
                method.name
            ));
        }
        // Staticness.
        let want_static = matches!(mode, EntityCallMode::Static);
        if method.flags.is_static != want_static {
            return Some(format!(
                "method {} is {} but was invoked {}",
                method.name,
                if method.flags.is_static {
                    "static"
                } else {
                    "an instance method"
                },
                if want_static {
                    "statically"
                } else {
                    "virtually"
                },
            ));
        }
        // Receiver / class conformance.
        if let Some(i) = obj_idx {
            if let Some(JniArg::Ref(r)) = cx.args.get(i) {
                if !r.is_null() {
                    if let Ok(Some(oop)) = jvm.resolve(cx.thread, *r) {
                        let cls = jvm.class_of(oop);
                        if !jvm.registry().is_assignable(cls, method.class) {
                            return Some(format!(
                                "receiver of class {} does not conform to {} declaring {}",
                                jvm.registry().class(cls).dotted_name(),
                                jvm.registry().class(method.class).dotted_name(),
                                method.name,
                            ));
                        }
                    }
                }
            }
        }
        if let Some(i) = clazz_idx {
            if let Some(JniArg::Ref(r)) = cx.args.get(i) {
                if let Some(given) = self.resolve_class_arg(jvm, cx.thread, *r) {
                    // The Eclipse SWT bug (Section 6.4.3): the class must
                    // itself declare the method; inheriting it from a
                    // superclass is a JNI violation.
                    if given != method.class {
                        return Some(format!(
                            "class {} does not declare {} (it is declared by {})",
                            jvm.registry().class(given).dotted_name(),
                            method.name,
                            jvm.registry().class(method.class).dotted_name(),
                        ));
                    }
                }
            }
        }
        // Actual arguments against formals.
        let actuals = match cx.args.get(args_idx) {
            Some(JniArg::Args(v)) => v.clone(),
            _ => Vec::new(),
        };
        self.check_args_against_sig(jvm, cx.thread, &method.sig, &actuals)
    }

    fn check_field_access(
        &self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        stat: bool,
        write: bool,
    ) -> Option<String> {
        let fid = match cx.args.get(1) {
            Some(JniArg::Field(f)) => *f,
            _ => return None,
        };
        let Some(field) = self.issued_field(jvm, fid) else {
            return Some(format!("field ID {fid} was never issued by the JVM"));
        };
        if self.config.pedantic_visibility && field.flags.visibility == minijvm::Visibility::Private
        {
            return Some(format!(
                "access to private field {} from native code",
                field.name
            ));
        }
        if field.flags.is_static != stat {
            return Some(format!(
                "field {} is {} but was accessed {}",
                field.name,
                if field.flags.is_static {
                    "static"
                } else {
                    "an instance field"
                },
                if stat {
                    "statically"
                } else {
                    "through an instance"
                },
            ));
        }
        if stat {
            if let Some(JniArg::Ref(r)) = cx.args.first() {
                if let Some(given) = self.resolve_class_arg(jvm, cx.thread, *r) {
                    if given != field.class {
                        return Some(format!(
                            "class {} does not declare field {}",
                            jvm.registry().class(given).dotted_name(),
                            field.name,
                        ));
                    }
                }
            }
        } else if let Some(JniArg::Ref(r)) = cx.args.first() {
            if !r.is_null() {
                if let Ok(Some(oop)) = jvm.resolve(cx.thread, *r) {
                    let cls = jvm.class_of(oop);
                    if !jvm.registry().is_assignable(cls, field.class) {
                        return Some(format!(
                            "object of class {} has no field {}",
                            jvm.registry().class(cls).dotted_name(),
                            field.name,
                        ));
                    }
                }
            }
        }
        if write {
            let value = match cx.args.get(2) {
                Some(JniArg::Val(v)) => Some(*v),
                Some(JniArg::Ref(r)) => Some(JValue::Ref(*r)),
                _ => None,
            };
            if let Some(v) = value {
                match (&field.ty, v) {
                    (FieldType::Prim(p), v) => {
                        if v.prim_type() != Some(*p) {
                            return Some(format!("value {v} does not conform to field type {p}"));
                        }
                    }
                    (ft, JValue::Ref(r)) => {
                        if !r.is_null() {
                            if let Ok(Some(oop)) = jvm.resolve(cx.thread, r) {
                                let cls = jvm.class_of(oop);
                                if let Some(expected) = jvm.registry().class_for_type(ft) {
                                    if !jvm.registry().is_assignable(cls, expected) {
                                        return Some(format!(
                                            "value of class {} does not conform to field type {}",
                                            jvm.registry().class(cls).dotted_name(),
                                            ft,
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    (ft, v) => {
                        return Some(format!("primitive {v} written to reference field {ft}"));
                    }
                }
            }
        }
        None
    }

    fn check_fixed_type(&self, jvm: &Jvm, cx: &CallCx<'_>, param: usize) -> Option<String> {
        let spec = cx.spec();
        let p = &spec.params[param];
        let r = cx.args.get(param).and_then(JniArg::as_ref)?;
        if r.is_null() {
            return None; // nullness machine owns this case
        }
        let oop = jvm.resolve(cx.thread, r).ok().flatten()?;
        let class = jvm.class_of(oop);
        let class_name = jvm.registry().class(class).name();
        let conforms = p.fixed_types.iter().any(|t| match *t {
            "[*" => class_name.starts_with('['),
            "[prim" => class_name.len() == 2 && class_name.starts_with('['),
            "[obj" => class_name.starts_with("[L") || class_name.starts_with("[["),
            expected => match jvm.registry().class_by_name(expected) {
                Some(tc) => jvm.registry().is_assignable(class, tc),
                None => false,
            },
        });
        if conforms {
            None
        } else {
            Some(format!(
                "parameter `{}` is a {} but must conform to {}",
                p.name,
                jvm.registry().class(class).dotted_name(),
                p.fixed_types.join(" or "),
            ))
        }
    }

    // ---- ID signature tables ---------------------------------------------

    /// The registry entry of a method ID issued to native code.
    fn issued_method<'j>(&self, jvm: &'j Jvm, mid: MethodId) -> Option<&'j MethodInfo> {
        self.methods
            .contains(&mid)
            .then(|| jvm.registry().method(mid))
            .flatten()
    }

    /// The registry entry of a field ID issued to native code.
    fn issued_field<'j>(&self, jvm: &'j Jvm, fid: FieldId) -> Option<&'j FieldInfo> {
        self.fields
            .contains(&fid)
            .then(|| jvm.registry().field(fid))
            .flatten()
    }

    // ---- the check interpreter ------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn run_pre_check(
        &mut self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        machine: &'static str,
        check: Check,
    ) -> Option<Report> {
        let fname = cx.func.name();
        match check {
            Check::EnvMatches => {
                let own = jvm.thread(cx.thread).env();
                if cx.presented_env != own {
                    return Some(self.violation(
                        machine,
                        "Error:EnvMismatch",
                        fname,
                        format!("JNIEnv* does not belong to the current thread in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::NoPendingException if jvm.thread(cx.thread).pending_exception().is_some() => {
                return Some(self.violation(
                    machine,
                    "Error:SensitiveCallWithPending",
                    fname,
                    format!("An exception is pending in {fname}."),
                    cx.stack,
                ));
            }
            Check::CriticalSensitive
                if self
                    .criticals
                    .get(&cx.thread)
                    .map(|v| !v.is_empty())
                    .unwrap_or(false) =>
            {
                return Some(self.violation(
                    machine,
                    "Error:SensitiveCallInCritical",
                    fname,
                    format!("{fname} called inside a JNI critical section"),
                    cx.stack,
                ));
            }
            Check::CriticalRelease => {
                let object = cx.args.get(1).and_then(|a| match a {
                    JniArg::Buf(p) => jvm.pins().object(*p),
                    _ => None,
                });
                let tally = self.criticals.entry(cx.thread).or_default();
                match object.and_then(|o| tally.iter().position(|(obj, _)| *obj == o)) {
                    Some(pos) => {
                        tally[pos].1 -= 1;
                        if tally[pos].1 == 0 {
                            tally.remove(pos);
                        }
                    }
                    None => {
                        return Some(self.violation(
                            machine,
                            "Error:UnmatchedRelease",
                            fname,
                            format!(
                                "{fname} releases a critical resource the thread does not hold"
                            ),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::FixedType { param } => {
                if let Some(msg) = self.check_fixed_type(jvm, cx, param as usize) {
                    return Some(self.violation(
                        machine,
                        "Error:FixedTypeMismatch",
                        fname,
                        format!("{msg} in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::EntityCall { mode } => {
                if let Some(msg) = self.check_entity_call(jvm, cx, mode) {
                    return Some(self.violation(
                        machine,
                        "Error:EntityTypeMismatch",
                        fname,
                        format!("{msg} in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::EntityFieldAccess { stat, write } => {
                if let Some(msg) = self.check_field_access(jvm, cx, stat, write) {
                    return Some(self.violation(
                        machine,
                        "Error:EntityTypeMismatch",
                        fname,
                        format!("{msg} in {fname}"),
                        cx.stack,
                    ));
                }
            }
            Check::KnownMethodId { param } => {
                if let Some(JniArg::Method(m)) = cx.args.get(param as usize) {
                    if !self.methods.contains(m) {
                        return Some(self.violation(
                            machine,
                            "Error:EntityTypeMismatch",
                            fname,
                            format!("method ID {m} was never issued by the JVM (in {fname})"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::KnownFieldId { param } => {
                if let Some(JniArg::Field(f)) = cx.args.get(param as usize) {
                    if !self.fields.contains(f) {
                        return Some(self.violation(
                            machine,
                            "Error:EntityTypeMismatch",
                            fname,
                            format!("field ID {f} was never issued by the JVM (in {fname})"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::FinalFieldGuard => {
                if let Some(JniArg::Field(f)) = cx.args.get(1) {
                    if let Some(field) = self.issued_field(jvm, *f) {
                        if field.flags.is_final {
                            return Some(self.violation(
                                machine,
                                "Error:FinalFieldWrite",
                                fname,
                                format!("{fname} assigns to final field {}", field.name),
                                cx.stack,
                            ));
                        }
                    }
                }
            }
            Check::NonNull { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if r.is_null() {
                        let pname = cx.spec().params[param as usize].name;
                        return Some(self.violation(
                            machine,
                            "Error:Null",
                            fname,
                            format!("parameter `{pname}` of {fname} must not be null"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::PinRelease { param } => {
                if let Some(JniArg::Buf(pin)) = cx.args.get(param as usize) {
                    let expected = expected_pin_kind(cx.func);
                    match self.pins.get_mut(pin) {
                        Some(info) if info.released => {
                            return Some(self.violation(
                                "pinned-buffer",
                                "Error:DoubleFree",
                                fname,
                                format!("{fname} releases an already-released buffer"),
                                cx.stack,
                            ));
                        }
                        Some(info) => {
                            if Some(info.kind) != expected {
                                let kind = info.kind;
                                return Some(self.violation(
                                    "pinned-buffer",
                                    "Error:DoubleFree",
                                    fname,
                                    format!("{fname} releases a buffer acquired via {kind}"),
                                    cx.stack,
                                ));
                            }
                            info.released = true;
                        }
                        None => {
                            if jvm.pins().is_live(*pin) {
                                self.stats.adopted_refs.fetch_add(1, Ordering::Relaxed);
                                self.pins.insert(
                                    *pin,
                                    PinInfo {
                                        kind: jvm
                                            .pins()
                                            .kind(*pin)
                                            .unwrap_or(PinKind::ArrayElements),
                                        released: true,
                                    },
                                );
                            } else {
                                return Some(self.violation(
                                    "pinned-buffer",
                                    "Error:DoubleFree",
                                    fname,
                                    format!("{fname} releases a buffer that was never acquired"),
                                    cx.stack,
                                ));
                            }
                        }
                    }
                }
            }
            Check::RefUse { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if let Some(msg) = self.check_ref_use(jvm, cx.thread, r, machine) {
                        return Some(self.violation(
                            machine,
                            "Error:Dangling",
                            fname,
                            format!("{msg} in {fname}"),
                            cx.stack,
                        ));
                    }
                }
            }
            Check::GlobalRelease { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if r.is_null() {
                        return None;
                    }
                    // A local passed here has no global cell.
                    let global = r.kind() != RefKind::Local;
                    let state = if global {
                        self.global_cells(r).state(r)
                    } else {
                        None
                    };
                    match state {
                        Some(RefState::Live) => {
                            self.global_cells(r).set(r, RefState::Released);
                            self.record_ref_moved(
                                self.labels.global_ref,
                                cx.thread,
                                self.labels.release,
                                &r,
                            );
                        }
                        Some(RefState::Released) => {
                            return Some(self.violation(
                                machine,
                                "Error:Dangling",
                                fname,
                                format!("{fname} deletes an already-deleted global reference"),
                                cx.stack,
                            ));
                        }
                        None => {
                            if jvm.resolve(cx.thread, r).is_ok() {
                                if global {
                                    self.global_cells(r).set(r, RefState::Released);
                                }
                            } else {
                                return Some(self.violation(
                                    machine,
                                    "Error:Dangling",
                                    fname,
                                    format!("{fname} deletes a global reference that was never acquired"),
                                    cx.stack,
                                ));
                            }
                        }
                    }
                }
            }
            Check::LocalDelete { param } => {
                if let Some(r) = cx.args.get(param as usize).and_then(JniArg::as_ref) {
                    if r.is_null() || r.kind() != RefKind::Local {
                        return None;
                    }
                    let thread = cx.thread;
                    // Another thread's local has no cell here.
                    let state = if r.owner() == thread {
                        self.tracker(thread).cells.state(r)
                    } else {
                        None
                    };
                    match state {
                        Some(RefState::Live) => {
                            let tracker = self.tracker(thread);
                            tracker.cells.set(r, RefState::Released);
                            let entry = (r.slot(), r.generation());
                            for f in tracker.frames.iter_mut() {
                                f.refs.retain(|e| *e != entry);
                            }
                            self.record_ref_moved(
                                self.labels.local_ref,
                                thread,
                                self.labels.release,
                                &r,
                            );
                        }
                        Some(RefState::Released) => {
                            return Some(self.violation(
                                machine,
                                "Error:DoubleFree",
                                fname,
                                format!("{fname} deletes an already-deleted local reference"),
                                cx.stack,
                            ));
                        }
                        None => {
                            if jvm.resolve(thread, r).map(|o| o.is_some()).unwrap_or(false) {
                                self.tracker(thread).cells.set(r, RefState::Released);
                            } else {
                                return Some(self.violation(
                                    machine,
                                    "Error:DoubleFree",
                                    fname,
                                    format!(
                                        "{fname} deletes a local reference that was never acquired"
                                    ),
                                    cx.stack,
                                ));
                            }
                        }
                    }
                }
            }
            Check::FramePop => {
                let thread = cx.thread;
                let tracker = self.tracker(thread);
                let top_is_explicit = tracker
                    .frames
                    .last()
                    .map(|f| f.kind == FrameKind::Explicit)
                    .unwrap_or(false);
                if top_is_explicit {
                    tracker.release_frame();
                } else {
                    return Some(self.violation(
                        machine,
                        "Error:DoubleFree",
                        fname,
                        format!("{fname} pops a local frame that was never pushed"),
                        cx.stack,
                    ));
                }
            }
            // Post-only checks never appear in pre tables.
            _ => {}
        }
        None
    }

    fn run_post_check(
        &mut self,
        jvm: &Jvm,
        cx: &CallCx<'_>,
        machine: &'static str,
        check: Check,
        ret: Option<&JniRet>,
    ) -> Option<Report> {
        let fname = cx.func.name();
        let Some(ret) = ret else {
            return None; // the call failed; no encoding transitions
        };
        match check {
            Check::RecordMethodId => {
                if let JniRet::Method(m) = ret {
                    if jvm.registry().method(*m).is_some() {
                        self.methods.insert(*m);
                    }
                }
            }
            Check::RecordFieldId => {
                if let JniRet::Field(f) = ret {
                    if jvm.registry().field(*f).is_some() {
                        self.fields.insert(*f);
                    }
                }
            }
            Check::CriticalAcquire => {
                if let JniRet::Buf(pin) = ret {
                    if let Some(obj) = jvm.pins().object(*pin) {
                        let tally = self.criticals.entry(cx.thread).or_default();
                        match tally.iter_mut().find(|(o, _)| *o == obj) {
                            Some(entry) => entry.1 += 1,
                            None => tally.push((obj, 1)),
                        }
                    }
                }
            }
            Check::PinAcquire => {
                if let JniRet::Buf(pin) = ret {
                    if let Some(kind) = jvm.pins().kind(*pin) {
                        self.pins.insert(
                            *pin,
                            PinInfo {
                                kind,
                                released: false,
                            },
                        );
                    }
                }
            }
            Check::MonitorAcquire => {
                if let Some(r) = cx.args.first().and_then(JniArg::as_ref) {
                    if let Ok(Some(oop)) = jvm.resolve(cx.thread, r) {
                        let id = jvm.heap().id_of(oop);
                        *self.monitors.entry((cx.thread, id)).or_insert(0) += 1;
                    }
                }
            }
            Check::MonitorRelease => {
                if let Some(r) = cx.args.first().and_then(JniArg::as_ref) {
                    if let Ok(Some(oop)) = jvm.resolve(cx.thread, r) {
                        let id = jvm.heap().id_of(oop);
                        if let Some(count) = self.monitors.get_mut(&(cx.thread, id)) {
                            *count -= 1;
                            if *count == 0 {
                                self.monitors.remove(&(cx.thread, id));
                            }
                        }
                    }
                }
            }
            Check::GlobalAcquire => {
                if let JniRet::Ref(r) = ret {
                    if !r.is_null() {
                        self.global_cells(*r).set(*r, RefState::Live);
                        self.record_ref_moved(
                            self.labels.global_ref,
                            cx.thread,
                            self.labels.acquire,
                            r,
                        );
                    }
                }
            }
            Check::LocalAcquireFromReturn => {
                if let JniRet::Ref(r) = ret {
                    if !r.is_null() && r.kind() == RefKind::Local {
                        let thread = cx.thread;
                        let tracker = self.tracker(thread);
                        tracker.acquire(*r);
                        let frame = tracker.current();
                        let overflow = frame.refs.len() > frame.capacity;
                        let (len, cap) = (frame.refs.len(), frame.capacity);
                        self.record_ref_moved(
                            self.labels.local_ref,
                            thread,
                            self.labels.acquire,
                            r,
                        );
                        if overflow {
                            return Some(self.violation(
                                machine,
                                "Error:Overflow",
                                fname,
                                format!(
                                    "{fname} acquired local reference {len} of a frame with capacity {cap} (use EnsureLocalCapacity or PushLocalFrame)"
                                ),
                                cx.stack,
                            ));
                        }
                    }
                }
            }
            Check::FramePush => {
                let capacity = match cx.args.first() {
                    Some(JniArg::Size(c)) => (*c).max(0) as usize,
                    _ => DEFAULT_LOCAL_CAPACITY,
                };
                self.tracker(cx.thread).frames.push(Frame {
                    kind: FrameKind::Explicit,
                    capacity,
                    refs: Vec::new(),
                });
            }
            Check::EnsureCapacity => {
                if let Some(JniArg::Size(c)) = cx.args.first() {
                    let c = (*c).max(0) as usize;
                    let frame = self.tracker(cx.thread).current();
                    frame.capacity = frame.capacity.max(c);
                }
            }
            _ => {}
        }
        None
    }
}

fn expected_pin_kind(func: FuncId) -> Option<PinKind> {
    match func.spec().op {
        Op::ReleaseStringChars => Some(PinKind::StringChars),
        Op::ReleaseStringUtfChars => Some(PinKind::StringUtfChars),
        Op::ReleaseArrayElements(_) => Some(PinKind::ArrayElements),
        Op::ReleasePrimitiveArrayCritical => Some(PinKind::ArrayCritical),
        Op::ReleaseStringCritical => Some(PinKind::StringCritical),
        _ => None,
    }
}

impl Interpose for Jinn {
    fn name(&self) -> &str {
        "jinn"
    }

    fn pre_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>) -> Vec<Report> {
        // Synthesized wrappers throw at the first violated constraint
        // (Figure 4), so the first report wins.
        let n = self.table.pre(cx.func).len();
        self.stats
            .checks_executed
            .fetch_add(n as u64, Ordering::Relaxed);
        self.recorder
            .count_id(self.labels.checks_executed, n as u64);
        if !self.checks_enabled {
            return Vec::new();
        }
        for i in 0..n {
            let point = self.table.pre(cx.func)[i];
            if let Some(report) = self.run_pre_check(jvm, cx, point.machine, point.check) {
                return vec![report];
            }
        }
        Vec::new()
    }

    fn post_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>, ret: Option<&JniRet>) -> Vec<Report> {
        let n = self.table.post(cx.func).len();
        self.stats
            .checks_executed
            .fetch_add(n as u64, Ordering::Relaxed);
        self.recorder
            .count_id(self.labels.checks_executed, n as u64);
        if !self.checks_enabled {
            return Vec::new();
        }
        for i in 0..n {
            let point = self.table.post(cx.func)[i];
            if let Some(report) = self.run_post_check(jvm, cx, point.machine, point.check, ret) {
                return vec![report];
            }
        }
        Vec::new()
    }

    fn native_enter(
        &mut self,
        _jvm: &Jvm,
        thread: ThreadId,
        _method: MethodId,
        arg_refs: &[JRef],
        _stack: &[String],
    ) -> Vec<Report> {
        if !self.checks_enabled {
            return Vec::new();
        }
        let tracker = self.tracker(thread);
        tracker.frames.push(Frame {
            kind: FrameKind::NativeEntry,
            capacity: DEFAULT_LOCAL_CAPACITY,
            refs: Vec::new(),
        });
        let mut acquired = 0u64;
        for r in arg_refs {
            if r.kind() == RefKind::Local {
                tracker.acquire(*r);
                acquired += 1;
            }
        }
        if self.recorder.is_enabled() && acquired > 0 {
            // Call:Java→C Acquire transitions for the argument references.
            for r in arg_refs.iter().filter(|r| r.kind() == RefKind::Local) {
                self.record_ref_moved(self.labels.local_ref, thread, self.labels.acquire, r);
            }
            self.recorder
                .count_id(self.labels.locals_acquired, acquired);
        }
        Vec::new()
    }

    fn native_exit(
        &mut self,
        jvm: &Jvm,
        thread: ThreadId,
        method: MethodId,
        returned_ref: Option<JRef>,
        stack: &[String],
    ) -> Vec<Report> {
        if !self.checks_enabled {
            return Vec::new();
        }
        let mut reports = Vec::new();
        let method_name = jvm
            .registry()
            .method(method)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| "<native method>".to_string());

        // Use of the returned reference (Return:C→Java Use transition).
        if let Some(r) = returned_ref {
            let msg = match r.kind() {
                RefKind::Local => self.check_local_use(jvm, thread, r),
                RefKind::Global | RefKind::WeakGlobal => self.check_global_use(jvm, thread, r),
                RefKind::Null => None,
            };
            if let Some(msg) = msg {
                let machine: &'static str = if r.kind() == RefKind::Local {
                    "local-reference"
                } else {
                    "global-reference"
                };
                reports.push(self.violation(
                    machine,
                    "Error:Dangling",
                    &method_name,
                    format!("{msg} returned from native method {method_name}"),
                    stack,
                ));
            }
        }

        // Frame balance: explicit frames must be popped before returning.
        let tracker = self.tracker(thread);
        let mut leaked_frames = 0;
        while tracker
            .frames
            .last()
            .map(|f| f.kind == FrameKind::Explicit)
            .unwrap_or(false)
        {
            leaked_frames += 1;
            tracker.release_frame();
        }
        // Release the native-entry frame itself.
        tracker.release_frame();
        if leaked_frames > 0 {
            reports.push(self.violation(
                "local-reference",
                "Error:FrameLeak",
                &method_name,
                format!("{leaked_frames} local frame(s) pushed by {method_name} were never popped"),
                stack,
            ));
        }
        reports
    }

    fn vm_death(&mut self, jvm: &Jvm) -> Vec<Report> {
        if !self.checks_enabled {
            return Vec::new();
        }
        let mut reports = Vec::new();
        // Leak sweeps iterate in sorted entity order: the backing maps
        // iterate in randomized order per process run, and verdict
        // sequences must be stable across runs (and across replays).
        let mut leaked_pins: Vec<(&PinId, &PinInfo)> =
            self.pins.iter().filter(|(_, i)| !i.released).collect();
        leaked_pins.sort_unstable_by_key(|(pin, _)| pin.0);
        for (pin, info) in leaked_pins {
            let kind = info.kind;
            reports.push(Report::new(
                Violation {
                    machine: "pinned-buffer",
                    error_state: "Error:Leak",
                    function: "VMDeath".to_string(),
                    message: format!("buffer {pin} acquired via {kind} was never released"),
                    backtrace: Vec::new(),
                },
                ReportAction::ThrowException,
            ));
        }
        let mut held_monitors: Vec<(&(ThreadId, ObjectId), &u32)> = self.monitors.iter().collect();
        held_monitors.sort_unstable_by_key(|((t, o), _)| (t.0, o.0));
        for ((thread, obj), count) in held_monitors {
            reports.push(Report::new(
                Violation {
                    machine: "monitor",
                    error_state: "Error:Leak",
                    function: "VMDeath".to_string(),
                    message: format!(
                        "monitor of {obj} still held {count}x by {thread} at termination (deadlock risk)"
                    ),
                    backtrace: Vec::new(),
                },
                ReportAction::ThrowException,
            ));
        }
        let leaked_globals = self.globals.live() + self.weak_globals.live();
        if leaked_globals > 0 {
            reports.push(Report::new(
                Violation {
                    machine: "global-reference",
                    error_state: "Error:Leak",
                    function: "VMDeath".to_string(),
                    message: format!(
                        "{leaked_globals} global/weak-global reference(s) never deleted"
                    ),
                    backtrace: Vec::new(),
                },
                ReportAction::ThrowException,
            ));
        }
        self.stats
            .violations
            .fetch_add(reports.len() as u64, Ordering::Relaxed);
        let _ = jvm;
        reports
    }
}

/// Registers Jinn's exception class and attaches a fresh checker to the
/// session (`java -agentlib:jinn`). Returns the stats handle.
pub fn install(session: &mut minijni::Session) -> SharedStats {
    install_with_config(session, JinnConfig::default())
}

/// Like [`install`], with explicit configuration.
pub fn install_with_config(session: &mut minijni::Session, config: JinnConfig) -> SharedStats {
    install_prebuilt(session, Jinn::with_config(config))
}

/// Like [`install`], but attaches a checker constructed elsewhere — for
/// example on a driver thread that then moves it into a worker thread
/// (`Jinn` is `Send`). Registers the exception class, wires the
/// session's recorder into the checker, and returns the stats handle.
pub fn install_prebuilt(session: &mut minijni::Session, mut jinn: Jinn) -> SharedStats {
    register_exception_class(session);
    jinn.set_recorder(session.recorder().clone());
    let stats = jinn.stats_handle();
    session.attach(Box::new(jinn));
    stats
}

/// Registers the exception class Jinn's reports throw, once per VM.
fn register_exception_class(session: &mut minijni::Session) {
    let jvm = session.vm_mut().jvm_mut();
    if jvm.find_class(minijni::JINN_EXCEPTION_CLASS).is_none() {
        jvm.registry_mut()
            .define(minijni::JINN_EXCEPTION_CLASS)
            .superclass(minijvm::class::names::RUNTIME_EXCEPTION)
            .build()
            .expect("register jinn exception class");
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Mutex;

    use minijni::{typed, JniEnv, JniError, RunOutcome, Session, Vm};

    use super::*;

    /// Forwards every hook to a shared [`Jinn`] so a test can read the
    /// checker's private tables while the session owns the interposer.
    /// After each hook it also records the VM's live-slot high-water
    /// marks: main-thread locals, globals, weak globals.
    #[derive(Clone)]
    struct Shared {
        jinn: Arc<Mutex<Jinn>>,
        high_water: Arc<Mutex<[usize; 3]>>,
    }

    impl Shared {
        fn observe(&self, jvm: &Jvm) {
            let live = [
                jvm.thread(jvm.main_thread()).live_local_count(),
                jvm.global_count(),
                jvm.weak_global_count(),
            ];
            let mut high_water = self.high_water.lock().unwrap();
            for (hw, n) in high_water.iter_mut().zip(live) {
                *hw = (*hw).max(n);
            }
        }
    }

    impl Interpose for Shared {
        fn name(&self) -> &str {
            "jinn"
        }

        fn pre_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>) -> Vec<Report> {
            self.jinn.lock().unwrap().pre_jni(jvm, cx)
        }

        fn post_jni(&mut self, jvm: &Jvm, cx: &CallCx<'_>, ret: Option<&JniRet>) -> Vec<Report> {
            self.observe(jvm);
            self.jinn.lock().unwrap().post_jni(jvm, cx, ret)
        }

        fn native_enter(
            &mut self,
            jvm: &Jvm,
            thread: ThreadId,
            method: MethodId,
            arg_refs: &[JRef],
            stack: &[String],
        ) -> Vec<Report> {
            self.observe(jvm);
            let mut jinn = self.jinn.lock().unwrap();
            jinn.native_enter(jvm, thread, method, arg_refs, stack)
        }

        fn native_exit(
            &mut self,
            jvm: &Jvm,
            thread: ThreadId,
            method: MethodId,
            returned_ref: Option<JRef>,
            stack: &[String],
        ) -> Vec<Report> {
            let mut jinn = self.jinn.lock().unwrap();
            jinn.native_exit(jvm, thread, method, returned_ref, stack)
        }

        fn vm_death(&mut self, jvm: &Jvm) -> Vec<Report> {
            self.jinn.lock().unwrap().vm_death(jvm)
        }
    }

    type Body = Rc<dyn Fn(&mut JniEnv<'_>, JRef) -> Result<(), JniError>>;

    /// One VM checked by a shared Jinn, with a native method that takes
    /// an object and runs the body under test on it.
    struct Harness {
        session: Session,
        shared: Shared,
        thread: ThreadId,
        entry: MethodId,
        arg: JValue,
        body: Rc<RefCell<Body>>,
    }

    impl Harness {
        fn new() -> Harness {
            let mut vm = Vm::permissive();
            let body: Rc<RefCell<Body>> = Rc::new(RefCell::new(Rc::new(|_, _| Ok(()))));
            let current = Rc::clone(&body);
            let (_class, entry) = vm.define_native_class(
                "bounded/T",
                "m",
                "(Ljava/lang/Object;)V",
                true,
                Rc::new(move |env, args| {
                    let JValue::Ref(obj) = args[0] else {
                        panic!("object argument")
                    };
                    let body = Rc::clone(&current.borrow());
                    body(env, obj)?;
                    Ok(JValue::Void)
                }),
            );
            let object = vm.jvm().find_class("java/lang/Object").unwrap();
            let oop = vm.jvm_mut().alloc_object(object);
            let thread = vm.jvm().main_thread();
            let arg = JValue::Ref(vm.jvm_mut().new_local(thread, oop));
            let mut session = Session::new(vm);
            register_exception_class(&mut session);
            let shared = Shared {
                jinn: Arc::new(Mutex::new(Jinn::new())),
                high_water: Arc::new(Mutex::new([0; 3])),
            };
            session.attach(Box::new(shared.clone()));
            Harness {
                session,
                shared,
                thread,
                entry,
                arg,
                body,
            }
        }

        fn run(&mut self, body: Body) -> RunOutcome {
            *self.body.borrow_mut() = body;
            self.session
                .run_native(self.thread, self.entry, &[self.arg])
        }

        /// Cells in each reference table (main-thread locals, globals,
        /// weak globals), then the issued method and field IDs.
        fn tracked(&self) -> [usize; 5] {
            let jinn = self.shared.jinn.lock().unwrap();
            [
                jinn.locals.get(&self.thread).map_or(0, |t| t.cells.0.len()),
                jinn.globals.0.len(),
                jinn.weak_globals.0.len(),
                jinn.methods.len(),
                jinn.fields.len(),
            ]
        }
    }

    /// Acquires and releases locals (through `DeleteLocalRef` and
    /// `PopLocalFrame`), globals and weak globals, `rounds` times.
    fn churn(rounds: usize) -> Body {
        Rc::new(move |env, obj| {
            for _ in 0..rounds {
                let local = typed::new_local_ref(env, obj)?;
                typed::delete_local_ref(env, local)?;
                typed::push_local_frame(env, 4)?;
                let a = typed::new_local_ref(env, obj)?;
                typed::new_local_ref(env, a)?;
                typed::pop_local_frame(env, JRef::NULL)?;
                let global = typed::new_global_ref(env, obj)?;
                typed::delete_global_ref(env, global)?;
                let weak = typed::new_weak_global_ref(env, obj)?;
                typed::delete_weak_global_ref(env, weak)?;
            }
            Ok(())
        })
    }

    #[test]
    fn reference_state_stays_within_the_live_slot_high_water_mark() {
        const CALLS: usize = 100;
        const ROUNDS: usize = 100;
        let mut h = Harness::new();
        let outcome = h.run(churn(ROUNDS));
        assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");
        let after_first = h.tracked();
        for _ in 1..CALLS {
            let outcome = h.run(churn(ROUNDS));
            assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");
        }
        let after_all = h.tracked();
        assert_eq!(
            after_all,
            after_first,
            "checker state grew over {} rounds",
            CALLS * ROUNDS
        );
        let high_water = *h.shared.high_water.lock().unwrap();
        for (table, (cells, hw)) in ["locals", "globals", "weak globals"]
            .iter()
            .zip(after_all.iter().zip(high_water))
        {
            assert!(
                *cells <= hw,
                "{table}: {cells} cells above the VM's live-slot high-water mark {hw}"
            );
        }
        assert!(h.session.shutdown().is_empty());
    }

    #[test]
    fn forged_refs_and_ids_get_their_verdicts_and_grow_no_table() {
        let thread = Harness::new().thread;
        let forged_local = JRef::from_parts(RefKind::Local, thread, u32::MAX, 0);
        let forged_global = JRef::from_parts(RefKind::Global, ThreadId(0), u32::MAX, 0);
        let forged_weak = JRef::from_parts(RefKind::WeakGlobal, ThreadId(0), u32::MAX, 0);
        let mut cases: Vec<(Body, &str, &str, String)> = vec![
            (
                Rc::new(move |env, _| typed::get_object_class(env, forged_local).map(drop)),
                "local-reference",
                "Error:Dangling",
                "Error: dangling local reference (never acquired) in GetObjectClass".to_string(),
            ),
            (
                Rc::new(move |env, _| typed::delete_local_ref(env, forged_local)),
                "local-reference",
                "Error:DoubleFree",
                "DeleteLocalRef deletes a local reference that was never acquired".to_string(),
            ),
            (
                Rc::new(move |env, _| typed::get_object_class(env, forged_global).map(drop)),
                "global-reference",
                "Error:Dangling",
                "Error: dangling global reference (never acquired) in GetObjectClass".to_string(),
            ),
            (
                Rc::new(move |env, _| typed::delete_global_ref(env, forged_global)),
                "global-reference",
                "Error:Dangling",
                "DeleteGlobalRef deletes a global reference that was never acquired".to_string(),
            ),
            (
                Rc::new(move |env, _| typed::delete_weak_global_ref(env, forged_weak)),
                "global-reference",
                "Error:Dangling",
                "DeleteWeakGlobalRef deletes a global reference that was never acquired"
                    .to_string(),
            ),
        ];
        // Method and field IDs: a registry index that was never issued, and one past the registry.
        for bits in [0, u64::from(u32::MAX)] {
            let mid = MethodId::forged(bits);
            let fid = FieldId::forged(bits);
            cases.push((
                Rc::new(move |env, obj| {
                    let class = typed::get_object_class(env, obj)?;
                    typed::call_static_void_method(env, class, mid, &[])
                }),
                "entity-typing",
                "Error:EntityTypeMismatch",
                format!("method ID {mid} was never issued by the JVM in CallStaticVoidMethod"),
            ));
            cases.push((
                Rc::new(move |env, obj| typed::get_int_field(env, obj, fid).map(drop)),
                "entity-typing",
                "Error:EntityTypeMismatch",
                format!("field ID {fid} was never issued by the JVM in GetIntField"),
            ));
        }
        for (body, machine, error_state, message) in cases {
            // Each case on a fresh VM whose tables one churn round filled.
            let mut h = Harness::new();
            let outcome = h.run(churn(1));
            assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");
            let before = h.tracked();
            match h.run(body) {
                RunOutcome::CheckerException(v) => {
                    assert_eq!(
                        (v.machine, v.error_state, &v.message),
                        (machine, error_state, &message)
                    );
                }
                other => panic!("expected {machine}/{error_state}, got {other:?}"),
            }
            assert_eq!(
                h.tracked(),
                before,
                "a forged input grew a table: {message}"
            );
        }
    }
}
