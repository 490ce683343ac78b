//! The replay driver: rebuild the recorded world, re-feed the recorded
//! boundary calls through a freshly-configured JNI stack, and classify
//! the outcome with the microbenchmark harness's own entry loop and
//! classifier, in Table 1 vocabulary.
//!
//! Determinism rests on three invariants of the substrate:
//!
//! 1. every id (`ClassId`, `MethodId`, `FieldId`, local-reference
//!    slot/generation, heap positions) is assigned in allocation order,
//!    so re-executing the recorded definitions/allocations in order
//!    reproduces the original ids exactly;
//! 2. native bodies only interact with the VM through the JNI, so a body
//!    can be *replaced* by a script that re-issues its recorded JNI
//!    calls verbatim;
//! 3. undefined-behaviour outcomes and checker verdicts are functions of
//!    (vendor model, checker config, boundary history) — replaying one
//!    maximal trace under a different configuration re-decides them,
//!    which is exactly the differential question of Table 1.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use jinn_microbench::{classify, run_entries, Behavior, Config};
use minijni::{FuncId, JniEnv};
use minijni::{JniArg, JniError, RunOutcome, Session, Vm};
use minijvm::{EnvToken, FieldType, JValue, MethodId, ThreadId};

use crate::format::{BodyKind, CallStatus, ManagedRec, SeedKind, TraceError, TraceRecord};
use crate::reader::Trace;

/// What replaying a trace under one configuration produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The configuration's label.
    pub label: String,
    /// Classified behaviour, Table 1 vocabulary.
    pub behavior: Behavior,
    /// Primary diagnosis message, if any tool produced one.
    pub message: Option<String>,
    /// The session log.
    pub log: Vec<String>,
    /// Recorded JNI calls re-issued.
    pub events_replayed: u64,
    /// Replay mismatches observed (unexpected seed ids, exhausted
    /// queues). Zero on a faithful trace; post-bug divergence under a
    /// *stricter* config than the recorder is normal and not counted.
    pub divergences: u64,
    /// Every checker violation surfaced during the run: the in-flight
    /// checker exception (if any) plus all shutdown-time reports, in
    /// detection order. The verdict store in `jinn-serve` indexes these
    /// individually; [`ReplayOutcome::behavior`] summarizes them.
    pub violations: Vec<minijni::Violation>,
}

impl ReplayOutcome {
    /// A compact verdict string for diffing: behaviour plus message.
    pub fn verdict_signature(&self) -> String {
        match &self.message {
            Some(m) => format!("{}: {m}", self.behavior),
            None => self.behavior.to_string(),
        }
    }
}

/// One recorded `Call:C→Java` with the presented env token.
#[derive(Debug, Clone)]
struct CallRec {
    presented: u32,
    func: u16,
    args: Vec<JniArg>,
}

/// A top-level program entry observed in the trace.
#[derive(Debug, Clone)]
struct TopEntry {
    thread: u16,
    method: u32,
    args: Vec<JValue>,
}

/// Rebuilds the recorded world inside `vm`: classes (in recorded
/// definition order, with the scripted bodies the factories make),
/// spawned threads, and seed allocations. Returns the number of setup
/// divergences.
fn rebuild_world(
    vm: &mut Vm,
    trace: &Trace,
    native_body: &mut dyn FnMut(u32) -> minijni::NativeFn,
    managed_body: &mut dyn FnMut(u32) -> minijni::ManagedFn,
) -> Result<u64, TraceError> {
    let mut divergences = 0u64;
    let mut next_method = vm.jvm().registry().method_count() as u32;

    for class in &trace.classes {
        if class.name.starts_with('[') {
            // Array classes replay through the registry's array-class
            // cache; the name is the element descriptor wrapped in `[`.
            let ty = FieldType::parse(&class.name).map_err(|e| {
                TraceError::Corrupt(format!("bad array class `{}`: {e}", class.name))
            })?;
            let FieldType::Array(elem) = ty else {
                return Err(TraceError::Corrupt(format!(
                    "class `{}` is not an array descriptor",
                    class.name
                )));
            };
            vm.jvm_mut().registry_mut().array_class(*elem);
            continue;
        }
        // Register scripted bodies first (code indices), then define the
        // class so method ids come out in recorded order.
        let mut bodies = Vec::with_capacity(class.methods.len());
        for m in &class.methods {
            let body = match m.kind {
                BodyKind::Native => {
                    let idx = vm.add_native_code(native_body(next_method));
                    minijvm::MethodBody::Native(Some(idx))
                }
                BodyKind::Managed => {
                    let idx = vm.add_managed_code(managed_body(next_method));
                    minijvm::MethodBody::Managed(idx)
                }
                BodyKind::Abstract => minijvm::MethodBody::Abstract,
            };
            next_method += 1;
            bodies.push(body);
        }
        let mut builder = vm.jvm_mut().registry_mut().define(&class.name);
        if class.is_interface {
            builder = builder.as_interface();
        } else if let Some(sup) = &class.superclass {
            builder = builder.superclass(sup.clone());
        }
        for f in &class.fields {
            builder = builder.field(&f.name, &f.desc, f.flags);
        }
        for (m, body) in class.methods.iter().zip(bodies) {
            builder = builder.method(&m.name, &m.desc, m.flags, body);
        }
        builder
            .build()
            .map_err(|e| TraceError::Corrupt(format!("class `{}`: {e}", class.name)))?;
    }

    if let Some(period) = trace.meta_value("gc_period").and_then(|v| v.parse().ok()) {
        vm.jvm_mut().set_auto_gc_period(Some(period));
    }

    for &expected in &trace.threads {
        let got = vm.jvm_mut().spawn_thread();
        if got.0 != expected {
            divergences += 1;
        }
    }

    for seed in &trace.seeds {
        let oop = match &seed.kind {
            SeedKind::Text(s) => vm.jvm_mut().alloc_string(s),
            SeedKind::Object(class) => {
                let Some(id) = vm.jvm().find_class(class) else {
                    divergences += 1;
                    continue;
                };
                vm.jvm_mut().alloc_object(id)
            }
            SeedKind::Mirror(class) => {
                let Some(id) = vm.jvm().find_class(class) else {
                    divergences += 1;
                    continue;
                };
                vm.jvm_mut().mirror_oop(id)
            }
        };
        if !vm.jvm().thread_ids().any(|t| t.0 == seed.thread) {
            return Err(unspawned(seed.thread));
        }
        let r = vm.jvm_mut().new_local(ThreadId(seed.thread), oop);
        if r != seed.expected {
            divergences += 1;
        }
    }
    Ok(divergences)
}

/// A record on a thread the trace never spawned: the VM indexes its
/// threads by id, so replay rejects it.
fn unspawned(thread: u16) -> TraceError {
    TraceError::Corrupt(format!("record on unspawned thread {thread}"))
}

/// Replays a parsed trace under one configuration.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the event stream is structurally invalid
/// (unbalanced enters/exits, setup records mid-stream, unknown classes).
pub fn replay_trace(trace: &Trace, config: &Config) -> Result<ReplayOutcome, TraceError> {
    replay_complete(trace, config, None)
}

/// Like [`replay_trace`], but with a live [`jinn_obs::Recorder`] wired
/// into the replayed session *before* the checker stack attaches, so
/// FSM-transition and verdict events from the re-judged execution land
/// in the caller's ring. This is the `jinn-serve` seam: each ingest
/// worker hands the daemon's per-session recorder in and reads event
/// summaries back out of it.
///
/// # Errors
///
/// As for [`replay_trace`].
pub fn replay_trace_observed(
    trace: &Trace,
    config: &Config,
    recorder: &jinn_obs::Recorder,
) -> Result<ReplayOutcome, TraceError> {
    replay_complete(trace, config, Some(recorder))
}

/// The whole-trace driver: folds every event into a feed, finishes it,
/// and replays on the calling thread. A finished feed never blocks, so
/// this is [`run_live_replay`] with the stream already complete — one
/// fold, one executor, whether the events arrived at once or in chunks.
fn replay_complete(
    trace: &Trace,
    config: &Config,
    recorder: Option<&jinn_obs::Recorder>,
) -> Result<ReplayOutcome, TraceError> {
    let feed = Arc::new(EventFeed::new());
    let mut feeder = LiveFeeder::new(Arc::clone(&feed));
    for event in &trace.events {
        feeder.push(event)?;
    }
    feeder.finish();
    run_live_replay(trace, config, recorder, &feed)
}

/// Replays raw trace bytes under one configuration (parse + replay).
///
/// # Errors
///
/// As for [`Trace::parse`] and [`replay_trace`].
pub fn replay_bytes(bytes: &[u8], config: &Config) -> Result<ReplayOutcome, TraceError> {
    let trace = Trace::parse(bytes)?;
    replay_trace(&trace, config)
}

// ---------------------------------------------------------------------------
// The replay fold
// ---------------------------------------------------------------------------
//
// A producer pushes event records into an [`EventFeed`] through a
// [`LiveFeeder`], which publishes each native activation at its
// `NativeEnter` — activations of one method are consumed in enter order,
// which is the order a re-executing VM asks for them (a recursive native
// reaches its inner call before the outer one returns). The scripted
// bodies [`run_live_replay`] installs pop activations and calls off the
// feed and block only when the executor has caught up with a stream that
// is still arriving. [`replay_trace`] finishes the feed before replaying,
// so nothing blocks; `jinn-serve` feeds it from ingest while the executor
// runs on a thread of its own (`Session`/`Vm` hold `Rc` bodies and never
// cross threads). TRACE_FORMAT.md "Replay semantics" specifies the
// rules.

/// A recorded call pulled from an activation, or the activation's
/// recorded return once its calls are exhausted.
enum NextCall {
    /// The next recorded JNI call to re-issue.
    Call(CallRec),
    /// Activation closed (its `NativeExit` arrived) with this return
    /// value; `None` also stands for an activation still open when the
    /// feed finished, which returns `Void`.
    Done(Option<JValue>),
}

/// One native activation: calls appended by the feeder, consumed by the
/// scripted body, closed by `NativeExit`.
#[derive(Debug, Default)]
struct Activation {
    calls: VecDeque<CallRec>,
    closed: bool,
    ret: Option<JValue>,
}

#[derive(Debug, Default)]
struct FeedInner {
    /// Arena of activations; ids index into it and are never reused.
    activations: Vec<Activation>,
    /// Per-method activation ids in enter order.
    ready: HashMap<u32, VecDeque<usize>>,
    /// Per-method managed outcomes in exit order.
    managed: HashMap<u32, VecDeque<ManagedRec>>,
    /// Top-level entries in stream order.
    tops: VecDeque<TopEntry>,
    /// No more records will arrive (end of trace, abort, or error).
    finished: bool,
    /// Consumers blocked on the condvar. Publishing wakes them only
    /// when there are any, so a feed filled before its executor runs
    /// costs no wake-up syscalls.
    waiters: u32,
}

/// The producer/consumer channel between a [`LiveFeeder`] and the replay
/// executor. All waits are on one condvar: the feed carries a handful of
/// small queues, and the executor blocks only when it has genuinely
/// caught up with the stream.
#[derive(Debug, Default)]
pub struct EventFeed {
    inner: Mutex<FeedInner>,
    cond: Condvar,
}

/// Feed state is plain owned data; a panicking holder cannot break its
/// structural invariants, so poison recovery is safe (and required — a
/// panicked executor must not wedge the ingest thread).
fn feed_lock(feed: &EventFeed) -> MutexGuard<'_, FeedInner> {
    feed.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EventFeed {
    /// An empty feed.
    pub fn new() -> EventFeed {
        EventFeed::default()
    }

    /// Marks the feed finished: every blocked consumer drains (missing
    /// data reads as closed/absent, which the scripted bodies count as
    /// divergences). Used at end of trace, and to stop an executor whose
    /// result will not be used.
    pub fn finish(&self) {
        feed_lock(self).finished = true;
        self.cond.notify_all();
    }

    /// Blocks until a producer publishes or the feed finishes.
    fn wait<'a>(&'a self, mut inner: MutexGuard<'a, FeedInner>) -> MutexGuard<'a, FeedInner> {
        inner.waiters += 1;
        let mut inner = self
            .cond
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        inner.waiters -= 1;
        inner
    }

    /// Releases a producer's lock, waking any blocked consumer.
    fn publish(&self, inner: MutexGuard<'_, FeedInner>) {
        let wake = inner.waiters > 0;
        drop(inner);
        if wake {
            self.cond.notify_all();
        }
    }

    fn pop_top(&self) -> Option<TopEntry> {
        let mut inner = feed_lock(self);
        loop {
            if let Some(top) = inner.tops.pop_front() {
                return Some(top);
            }
            if inner.finished {
                return None;
            }
            inner = self.wait(inner);
        }
    }

    fn pop_activation(&self, method: u32) -> Option<usize> {
        let mut inner = feed_lock(self);
        loop {
            if let Some(id) = inner.ready.get_mut(&method).and_then(VecDeque::pop_front) {
                return Some(id);
            }
            if inner.finished {
                return None;
            }
            inner = self.wait(inner);
        }
    }

    fn next_call(&self, id: usize) -> NextCall {
        let mut inner = feed_lock(self);
        loop {
            let act = &mut inner.activations[id];
            if let Some(call) = act.calls.pop_front() {
                return NextCall::Call(call);
            }
            if act.closed {
                return NextCall::Done(act.ret.take());
            }
            if inner.finished {
                return NextCall::Done(None);
            }
            inner = self.wait(inner);
        }
    }

    fn pop_managed(&self, method: u32) -> Option<ManagedRec> {
        let mut inner = feed_lock(self);
        loop {
            if let Some(rec) = inner.managed.get_mut(&method).and_then(VecDeque::pop_front) {
                return Some(rec);
            }
            if inner.finished {
                return None;
            }
            inner = self.wait(inner);
        }
    }
}

/// The producer-side fold: pushes event records into an [`EventFeed`],
/// keeping the context stack that attributes each JNI call to its
/// innermost native activation.
pub struct LiveFeeder {
    feed: Arc<EventFeed>,
    stack: Vec<FoldCtx>,
}

enum FoldCtx {
    Native { method: u32, id: usize },
    Managed,
    Jni,
}

impl LiveFeeder {
    /// A feeder for `feed`.
    pub fn new(feed: Arc<EventFeed>) -> LiveFeeder {
        LiveFeeder {
            feed,
            stack: Vec::new(),
        }
    }

    /// Folds one event record into the feed.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] when the record is structurally invalid
    /// (unbalanced exits, a JNI call outside any native body, a setup
    /// record). The caller must stop feeding and finish the feed.
    pub fn push(&mut self, event: &TraceRecord) -> Result<(), TraceError> {
        match event {
            TraceRecord::NativeEnter {
                thread,
                method,
                args,
            } => {
                let mut inner = feed_lock(&self.feed);
                let id = inner.activations.len();
                inner.activations.push(Activation::default());
                if self.stack.is_empty() {
                    inner.tops.push_back(TopEntry {
                        thread: *thread,
                        method: *method,
                        args: args.clone(),
                    });
                }
                inner.ready.entry(*method).or_default().push_back(id);
                self.feed.publish(inner);
                self.stack.push(FoldCtx::Native {
                    method: *method,
                    id,
                });
            }
            TraceRecord::NativeExit {
                method,
                status,
                ret,
                ..
            } => {
                let Some(FoldCtx::Native { method: m, id }) = self.stack.pop() else {
                    return Err(TraceError::Corrupt("unbalanced NativeExit".into()));
                };
                if m != *method {
                    return Err(TraceError::Corrupt(format!(
                        "NativeExit method {method} does not match enter {m}"
                    )));
                }
                let mut inner = feed_lock(&self.feed);
                let act = &mut inner.activations[id];
                if *status == CallStatus::Ok {
                    act.ret = *ret;
                }
                act.closed = true;
                self.feed.publish(inner);
            }
            TraceRecord::JniEnter {
                presented,
                func,
                args,
                ..
            } => {
                let target = self
                    .stack
                    .iter()
                    .rev()
                    .find_map(|c| match c {
                        FoldCtx::Native { id, .. } => Some(*id),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        TraceError::Corrupt("JniEnter outside any native body".into())
                    })?;
                let mut inner = feed_lock(&self.feed);
                inner.activations[target].calls.push_back(CallRec {
                    presented: *presented,
                    func: *func,
                    args: args.clone(),
                });
                self.feed.publish(inner);
                self.stack.push(FoldCtx::Jni);
            }
            TraceRecord::JniExit { .. } => {
                if !matches!(self.stack.pop(), Some(FoldCtx::Jni)) {
                    return Err(TraceError::Corrupt("unbalanced JniExit".into()));
                }
            }
            TraceRecord::ManagedEnter { .. } => self.stack.push(FoldCtx::Managed),
            TraceRecord::ManagedExit {
                method, outcome, ..
            } => {
                if !matches!(self.stack.pop(), Some(FoldCtx::Managed)) {
                    return Err(TraceError::Corrupt("unbalanced ManagedExit".into()));
                }
                let mut inner = feed_lock(&self.feed);
                inner
                    .managed
                    .entry(*method)
                    .or_default()
                    .push_back(outcome.clone());
                self.feed.publish(inner);
            }
            // Substrate diagnostics: informative, not re-driven (the
            // replayed VM re-makes these decisions itself).
            TraceRecord::GcPoint { .. }
            | TraceRecord::VendorUb { .. }
            | TraceRecord::ObsEvent { .. }
            | TraceRecord::PyCall { .. } => {}
            TraceRecord::Meta { .. }
            | TraceRecord::DefClass(_)
            | TraceRecord::SpawnThread { .. }
            | TraceRecord::Seed(_) => {
                return Err(TraceError::Corrupt("setup record in event stream".into()))
            }
        }
        Ok(())
    }

    /// Closes the producer side at end of trace. Activations still open
    /// re-issue the calls they recorded and then return `Void`.
    pub fn finish(&mut self) {
        self.feed.finish();
    }
}

/// Executor-local replay counters, kept `Rc` so per-call updates stay
/// lock-free.
#[derive(Debug, Default)]
struct Counters {
    events_replayed: u64,
    divergences: u64,
}

fn make_native_body(
    feed: Arc<EventFeed>,
    counters: Rc<RefCell<Counters>>,
    method: u32,
) -> minijni::NativeFn {
    Rc::new(move |env: &mut JniEnv<'_>, _args: &[JValue]| {
        let Some(id) = feed.pop_activation(method) else {
            counters.borrow_mut().divergences += 1;
            return Ok(JValue::Void);
        };
        let own = env.presented_env();
        loop {
            match feed.next_call(id) {
                NextCall::Call(call) => {
                    env.set_presented_env(EnvToken(call.presented));
                    let result = env.invoke(FuncId(call.func), call.args);
                    counters.borrow_mut().events_replayed += 1;
                    // Ok, or an exception now pending: keep issuing the
                    // recorded calls — the recorded body did, and the
                    // driver's final pending-exception check reproduces
                    // the Java-side rethrow identically. Only
                    // death/detection stops the body.
                    if let Err(e @ (JniError::Death(_) | JniError::Detected(_))) = result {
                        env.set_presented_env(own);
                        return Err(e);
                    }
                }
                NextCall::Done(ret) => {
                    env.set_presented_env(own);
                    return Ok(ret.unwrap_or(JValue::Void));
                }
            }
        }
    })
}

fn make_managed_body(
    feed: Arc<EventFeed>,
    counters: Rc<RefCell<Counters>>,
    method: u32,
) -> minijni::ManagedFn {
    Rc::new(
        move |env: &mut JniEnv<'_>, _args: &[JValue]| match feed.pop_managed(method) {
            Some(ManagedRec::Return(v)) => Ok(v),
            Some(ManagedRec::Threw { class, message }) => Err(env.java_throw(&class, &message)),
            Some(ManagedRec::Died | ManagedRec::Detected) | None => {
                counters.borrow_mut().divergences += 1;
                Ok(JValue::Void)
            }
        },
    )
}

/// Replays the events of `feed` under one configuration: the world is
/// rebuilt from `setup`'s setup section (its events, if any, are
/// ignored), scripted bodies pop their activations off the feed, and the
/// run completes once the feed finishes and the recorded entries have
/// been executed. Call it on a dedicated thread while a [`LiveFeeder`]
/// is still filling the feed, or on any thread once the feed is
/// finished — the replay substrate is single-threaded by design.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the setup section cannot be rebuilt or
/// the feed held no top-level entry.
pub fn run_live_replay(
    setup: &Trace,
    config: &Config,
    recorder: Option<&jinn_obs::Recorder>,
    feed: &Arc<EventFeed>,
) -> Result<ReplayOutcome, TraceError> {
    let counters = Rc::new(RefCell::new(Counters::default()));

    let mut vm = config.vendor().vm();
    let native_feed = Arc::clone(feed);
    let native_counters = Rc::clone(&counters);
    let managed_feed = Arc::clone(feed);
    let managed_counters = Rc::clone(&counters);
    let setup_divergences = rebuild_world(
        &mut vm,
        setup,
        &mut move |m| make_native_body(Arc::clone(&native_feed), Rc::clone(&native_counters), m),
        &mut move |m| make_managed_body(Arc::clone(&managed_feed), Rc::clone(&managed_counters), m),
    )?;
    counters.borrow_mut().divergences += setup_divergences;

    // Threads exist only once the world is rebuilt.
    let threads: Vec<ThreadId> = vm.jvm().thread_ids().collect();
    let mut session = Session::new(vm);
    if let Some(rec) = recorder {
        session.set_recorder(rec.clone());
    }
    config.attach(&mut session);

    // The recorded entry arguments: replayed seeds reproduce the same
    // JRefs, so re-presenting them re-registers identical callee locals
    // and keeps slot allocation in lock-step with the trace. The recorded
    // program stopped at its first fatal entry; later tops stay
    // unconsumed and are dropped with the feed.
    let mut stray = None;
    let tops = std::iter::from_fn(|| {
        let top = feed.pop_top()?;
        if !threads.contains(&ThreadId(top.thread)) {
            stray = Some(top.thread);
            return None;
        }
        let method = MethodId::forged(u64::from(top.method));
        Some((ThreadId(top.thread), method, top.args))
    });
    let outcomes = run_entries(&mut session, setup.program(), tops);
    if let Some(thread) = stray {
        return Err(unspawned(thread));
    }
    if outcomes.is_empty() {
        return Err(TraceError::Corrupt("trace has no top-level entries".into()));
    }
    let shutdown_reports = session.shutdown();
    let log = session.take_log();
    drop(session);

    let leaks = setup.meta_value("leaks") == Some("true");
    let (behavior, message) = classify(leaks, *config, &outcomes, &shutdown_reports, &log);
    // Every checker verdict, in detection order: the one in flight when
    // the run stopped, then the shutdown reports.
    let violations = outcomes
        .iter()
        .filter_map(|o| match o {
            RunOutcome::CheckerException(v) => Some(v.clone()),
            _ => None,
        })
        .chain(shutdown_reports.into_iter().map(|r| r.violation))
        .collect();

    let counters = counters.borrow();
    Ok(ReplayOutcome {
        label: config.label(),
        behavior,
        message,
        log,
        events_replayed: counters.events_replayed,
        divergences: counters.divergences,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{program_by_name, record_program};
    use jinn_microbench::{scenarios, standard_configs};
    use jinn_vendors::Vendor;

    #[test]
    fn figure1_replay_matrix_matches_live_runs() {
        let p = program_by_name("LocalRefDangling").expect("figure 1 scenario");
        let bytes = record_program(&p);
        let trace = Trace::parse(&bytes).unwrap();

        let jinn = replay_trace(&trace, &Config::Jinn(Vendor::HotSpot)).unwrap();
        assert_eq!(jinn.behavior, Behavior::JinnException, "{jinn:?}");
        assert_eq!(jinn.divergences, 0, "{jinn:?}");
        assert!(jinn.events_replayed > 0);

        let hs = replay_trace(&trace, &Config::Default(Vendor::HotSpot)).unwrap();
        assert_eq!(hs.behavior, Behavior::Crash, "{hs:?}");
    }

    /// Streams a parsed trace's events through a [`LiveFeeder`] in small
    /// chunks on this thread, yielding between chunks, while the executor
    /// runs on another — the order `jinn-serve` feeds a streaming session.
    fn threaded_replay(trace: &Trace, config: &Config) -> Result<ReplayOutcome, TraceError> {
        let feed = Arc::new(EventFeed::new());
        let mut setup = trace.clone();
        setup.events = Vec::new();
        let exec_feed = Arc::clone(&feed);
        let exec_config = *config;
        let executor =
            std::thread::spawn(move || run_live_replay(&setup, &exec_config, None, &exec_feed));
        let mut feeder = LiveFeeder::new(Arc::clone(&feed));
        for chunk in trace.events.chunks(3) {
            for event in chunk {
                feeder.push(event).expect("corpus traces stream cleanly");
            }
            std::thread::yield_now();
        }
        feeder.finish();
        executor.join().expect("executor must not panic")
    }

    #[test]
    fn live_replay_matches_buffered_verdicts() {
        for p in scenarios()
            .iter()
            .chain(crate::record::case_studies().iter())
        {
            let trace = Trace::parse(&record_program(p)).unwrap();
            for config in &standard_configs() {
                let whole = replay_trace(&trace, config).unwrap();
                let live = threaded_replay(&trace, config).unwrap();
                let what = format!("{} under {}", p.name, config.label());
                assert_eq!(
                    live.verdict_signature(),
                    whole.verdict_signature(),
                    "{what}"
                );
                assert_eq!(live.behavior, whole.behavior, "{what}");
                assert_eq!(live.events_replayed, whole.events_replayed, "{what}");
                assert_eq!(live.divergences, whole.divergences, "{what}");
                assert_eq!(live.violations.len(), whole.violations.len(), "{what}");
                assert_eq!(live.log, whole.log, "{what}");
            }
        }
    }

    #[test]
    fn live_feeder_rejects_structurally_invalid_events() {
        let reject = |events: &[TraceRecord]| {
            let mut feeder = LiveFeeder::new(Arc::new(EventFeed::new()));
            let mut result = Ok(());
            for event in events {
                result = feeder.push(event);
                if result.is_err() {
                    break;
                }
            }
            result.expect_err("must be rejected").to_string()
        };
        let enter = |method| TraceRecord::NativeEnter {
            thread: 0,
            method,
            args: vec![],
        };
        let exit = |method| TraceRecord::NativeExit {
            thread: 0,
            method,
            status: CallStatus::Ok,
            ret: None,
        };

        let err = reject(&[exit(1)]);
        assert!(err.contains("unbalanced NativeExit"), "{err}");
        let err = reject(&[enter(1), exit(2)]);
        assert!(err.contains("does not match enter"), "{err}");
        let err = reject(&[TraceRecord::SpawnThread { thread: 3 }]);
        assert!(err.contains("setup record"), "{err}");

        // Same-method nesting (recursion) and an activation still open
        // at end of trace are not errors.
        let mut feeder = LiveFeeder::new(Arc::new(EventFeed::new()));
        for event in [enter(7), enter(7), exit(7)] {
            feeder.push(&event).expect("recursion folds");
        }
        feeder.finish();
    }

    #[test]
    fn events_on_unspawned_threads_are_corrupt_not_a_panic() {
        let mut trace = Trace::parse(&record_program(
            &program_by_name("LocalRefDangling").unwrap(),
        ))
        .unwrap();
        for event in &mut trace.events {
            if let TraceRecord::NativeEnter { thread, .. } = event {
                *thread = 60_000;
            }
        }
        let err = replay_trace(&trace, &Config::Jinn(Vendor::HotSpot)).unwrap_err();
        assert!(err.to_string().contains("unspawned thread 60000"), "{err}");
    }
}
