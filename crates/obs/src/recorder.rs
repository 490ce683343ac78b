//! The [`Recorder`]: the cheaply clonable handle every substrate crate
//! carries.
//!
//! A recorder is either *enabled* — backed by per-thread SPSC rings, an
//! intern table, and a metrics store — or *disabled*, in which case
//! every recording call is a single `Option` discriminant check and an
//! immediate return.
//!
//! ## The fast path
//!
//! The first event a thread records against a backend registers the
//! thread as a *writer*: it claims a private [`SpscRing`] slot, after
//! which the record path is wait-free — no lock, no shared-cacheline
//! read-modify-write:
//!
//! * **events** are encoded as fixed-width [`RawEvent`] words straight
//!   into the thread's own ring (labels are intern-table ids, not
//!   strings);
//! * **sequence numbers** are claimed from the global counter in blocks
//!   of [`SEQ_BLOCK`], so the shared atomic is touched once per block;
//! * **timestamps** are batched: one clock read per [`STAMP_BATCH`]
//!   events, monotone within a ring;
//! * **metrics** accumulate in thread-local batches and are folded into
//!   the shared store every [`FLUSH_EVERY`] operations, at thread exit,
//!   and before a same-thread snapshot.
//!
//! Export ([`Recorder::events`]) is the merge point: it snapshots each
//! ring without stopping writers and k-way merges by sequence number.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::event::{EventKind, FsmOutcome, TraceEvent, VerdictAction};
use crate::metrics::{Coverage, FuncMetrics, MachineMetrics, MetricsRegistry, Snapshot};
use crate::raw::{op, LabelId, RawEvent, ENTITY_KEY_BIT, NO_LABEL, RAW_WORDS};
use crate::spsc::SpscRing;

/// Default per-writer ring capacity for [`Recorder::enabled`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Maximum registered writer threads per backend. The last slot is a
/// shared overflow ring (mutex-serialised) for threads beyond the limit,
/// so recording never fails — it just stops being wait-free for the
/// overflow crowd.
pub const MAX_WRITERS: usize = 64;

const OVERFLOW_SLOT: usize = MAX_WRITERS - 1;

/// One call in this many (per thread) gets a latency timer when timers
/// are enabled; see [`Recorder::timer`].
const TIMER_SAMPLE: u32 = 8;

/// Sequence numbers are claimed from the shared counter in blocks of
/// this size: one `fetch_add` per block instead of per event. Cross-
/// thread interleaving in the merged timeline is therefore approximate
/// at block granularity; within a thread, order is exact.
pub const SEQ_BLOCK: u64 = 64;

/// Events per wall-clock read: timestamps within a batch share one
/// reading, so timelines are coarse to roughly this granularity.
pub const STAMP_BATCH: u32 = 32;

/// Thread-local metric batches are folded into the shared store every
/// this many recording operations (plus at thread exit and before a
/// same-thread snapshot).
pub const FLUSH_EVERY: u32 = 256;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking recorder user must not cascade into every other
    // thread's recording path: recover the data under the poison.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Label interning state: text → dense id, and id → shared text.
#[derive(Debug, Default)]
struct InternState {
    ids: HashMap<Box<str>, u32>,
    names: Vec<Arc<str>>,
}

fn intern_locked(st: &mut InternState, label: &str) -> u32 {
    if let Some(&id) = st.ids.get(label) {
        return id;
    }
    let id = st.names.len() as u32;
    st.ids.insert(Box::from(label), id);
    st.names.push(Arc::from(label));
    id
}

/// Thread-local, id-keyed metric batches (and their shared aggregate).
#[derive(Debug, Default)]
struct IdMetrics {
    jni: Vec<FuncMetrics>,
    machines: Vec<MachineMetrics>,
    counters: Vec<u64>,
}

fn at<T: Default + Clone>(v: &mut Vec<T>, id: u32) -> &mut T {
    let id = id as usize;
    if id >= v.len() {
        v.resize(id + 1, T::default());
    }
    &mut v[id]
}

impl IdMetrics {
    /// Folds this batch into `global` and resets it (capacity kept).
    fn drain_into(&mut self, global: &mut IdMetrics) {
        for (id, m) in self.jni.iter_mut().enumerate() {
            if m.calls > 0 {
                at(&mut global.jni, id as u32).merge(m);
                *m = FuncMetrics::default();
            }
        }
        for (id, m) in self.machines.iter_mut().enumerate() {
            if m.total() > 0 {
                at(&mut global.machines, id as u32).merge(m);
                *m = MachineMetrics::default();
            }
        }
        for (id, c) in self.counters.iter_mut().enumerate() {
            if *c > 0 {
                *at(&mut global.counters, id as u32) += *c;
                *c = 0;
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Globally unique backend id, the thread-local producer key.
    id: u64,
    start: Instant,
    ring_capacity: usize,
    /// Global sequence counter, claimed in [`SEQ_BLOCK`] blocks.
    seq: AtomicU64,
    /// Next writer slot to hand out (never reused).
    next_slot: AtomicUsize,
    /// Per-writer rings, allocated lazily at registration.
    slots: Box<[OnceLock<SpscRing>]>,
    /// Serialises producers that share the overflow slot.
    overflow_lock: Mutex<()>,
    intern: Mutex<InternState>,
    /// Flushed metric aggregates, id-keyed; resolved to names at
    /// snapshot time.
    store: Mutex<IdMetrics>,
}

static NEXT_BACKEND_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's registration with one backend: its ring slot, its
/// current sequence block and timestamp batch, and its unflushed metric
/// batch. Lives in thread-local storage; the `Drop` impl flushes at
/// thread exit (before `join` returns).
#[derive(Debug)]
struct Producer {
    backend: u64,
    inner: Weak<Inner>,
    slot: usize,
    exclusive: bool,
    seq_next: u64,
    seq_end: u64,
    micros: u64,
    stamp_left: u32,
    local: IdMetrics,
    ops: u32,
    /// Calls until the next latency timer is handed out.
    timer_left: u32,
}

thread_local! {
    static PRODUCERS: RefCell<Vec<Producer>> = const { RefCell::new(Vec::new()) };
}

impl Producer {
    fn register(inner: &Arc<Inner>) -> Producer {
        let claimed = inner.next_slot.fetch_add(1, Ordering::Relaxed);
        let (slot, exclusive) = if claimed < OVERFLOW_SLOT {
            (claimed, true)
        } else {
            (OVERFLOW_SLOT, false)
        };
        inner.slots[slot].get_or_init(|| SpscRing::new(inner.ring_capacity));
        Producer {
            backend: inner.id,
            inner: Arc::downgrade(inner),
            slot,
            exclusive,
            seq_next: 0,
            seq_end: 0,
            micros: 0,
            stamp_left: 0,
            local: IdMetrics::default(),
            ops: 0,
            timer_left: 0,
        }
    }

    /// Encodes the event and pushes it into this thread's ring. Metrics
    /// are the caller's business.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the five record words plus routing
    fn trace(&mut self, inner: &Inner, thread: u16, op: u8, flags: u8, label: u32, x: u64, y: u64) {
        let seq = self.next_seq(inner);
        let micros = self.stamp(inner);
        let words = RawEvent {
            seq,
            micros,
            thread,
            op,
            flags,
            label,
            x,
            y,
        }
        .to_words();
        let ring = inner.slots[self.slot].get().expect("registered slot");
        if self.exclusive {
            ring.push(words);
        } else {
            let _guard = lock(&inner.overflow_lock);
            ring.push(words);
        }
    }

    #[inline]
    fn next_seq(&mut self, inner: &Inner) -> u64 {
        if self.seq_next == self.seq_end {
            let base = inner.seq.fetch_add(SEQ_BLOCK, Ordering::Relaxed);
            self.seq_next = base;
            self.seq_end = base + SEQ_BLOCK;
            // A fresh block is a natural point to resynchronise the
            // batched clock.
            self.micros = inner.start.elapsed().as_micros() as u64;
            self.stamp_left = STAMP_BATCH;
        }
        let seq = self.seq_next;
        self.seq_next += 1;
        seq
    }

    #[inline]
    fn stamp(&mut self, inner: &Inner) -> u64 {
        if self.stamp_left == 0 {
            self.micros = inner.start.elapsed().as_micros() as u64;
            self.stamp_left = STAMP_BATCH;
        }
        self.stamp_left -= 1;
        self.micros
    }

    /// Bumps the op counter and flushes the metric batch if due.
    #[inline]
    fn tick(&mut self, inner: &Inner) {
        self.ops += 1;
        if self.ops >= FLUSH_EVERY {
            self.flush_with(inner);
        }
    }

    fn flush_with(&mut self, inner: &Inner) {
        self.ops = 0;
        self.local.drain_into(&mut lock(&inner.store));
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // Thread exit (TLS destructors run before `join` returns):
        // surface whatever this thread still holds locally. If the
        // backend is already gone there is nobody to tell.
        if let Some(inner) = self.inner.upgrade() {
            self.flush_with(&inner);
        }
    }
}

/// Handle to the observability backend. Cloning shares the backend;
/// clones may be moved freely across threads.
///
/// The default recorder is disabled: every call is a no-op after one
/// branch. Construct with [`Recorder::enabled`] to start recording.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder backed by per-writer-thread SPSC rings of
    /// `ring_capacity` events each (allocated lazily as threads start
    /// recording) and an empty metrics store.
    pub fn enabled(ring_capacity: usize) -> Recorder {
        let slots: Vec<OnceLock<SpscRing>> = (0..MAX_WRITERS).map(|_| OnceLock::new()).collect();
        Recorder {
            inner: Some(Arc::new(Inner {
                id: NEXT_BACKEND_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                ring_capacity,
                seq: AtomicU64::new(0),
                next_slot: AtomicUsize::new(0),
                slots: slots.into_boxed_slice(),
                overflow_lock: Mutex::new(()),
                intern: Mutex::new(InternState::default()),
                store: Mutex::new(IdMetrics::default()),
            })),
        }
    }

    /// Whether this recorder is actually recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` with this thread's producer for the backend,
    /// registering the thread as a writer on first use. Returns `None`
    /// (dropping the operation) only in teardown corner cases — TLS
    /// already destroyed, or a reentrant call from inside the producer.
    #[inline]
    fn with_producer<R>(
        inner: &Arc<Inner>,
        f: impl FnOnce(&mut Producer, &Inner) -> R,
    ) -> Option<R> {
        PRODUCERS
            .try_with(|cell| {
                let mut producers = cell.try_borrow_mut().ok()?;
                let idx = match producers.iter().position(|p| p.backend == inner.id) {
                    Some(idx) => idx,
                    None => {
                        // Drop registrations whose backend died so a
                        // thread outliving many recorders doesn't
                        // accumulate state without bound.
                        producers.retain(|p| p.inner.strong_count() > 0);
                        producers.push(Producer::register(inner));
                        producers.len() - 1
                    }
                };
                Some(f(&mut producers[idx], inner.as_ref()))
            })
            .ok()
            .flatten()
    }

    /// Flushes the calling thread's metric batch for this backend, if it
    /// has one, without registering a writer slot.
    fn flush_current(inner: &Arc<Inner>) {
        let _ = PRODUCERS.try_with(|cell| {
            if let Ok(mut producers) = cell.try_borrow_mut() {
                if let Some(p) = producers.iter_mut().find(|p| p.backend == inner.id) {
                    p.flush_with(inner);
                }
            }
        });
    }

    /// Flushes the calling thread's batched metrics into the shared
    /// store, making them visible to [`snapshot`](Self::snapshot) from
    /// other threads. Threads flush automatically every
    /// [`FLUSH_EVERY`] operations and when they exit; call this at the
    /// end of work on a *scoped* or pooled thread, where exit (and the
    /// TLS-destructor flush it triggers) may come after the coordinating
    /// thread has already resumed. No-op when disabled.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            Self::flush_current(inner);
        }
    }

    /// Starts a latency timer — `None` when disabled, so that path never
    /// touches the clock.
    ///
    /// Only one call in `TIMER_SAMPLE` (per thread) gets a timer: a
    /// clock read costs more than an entire ring write, and the latency
    /// *histograms* only need a representative sample, not a census. Call counts are exact regardless — only
    /// the histogram population is thinned.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        let inner = self.inner.as_ref()?;
        let due = Self::with_producer(inner, |p, _| {
            if p.timer_left == 0 {
                p.timer_left = TIMER_SAMPLE - 1;
                true
            } else {
                p.timer_left -= 1;
                false
            }
        })
        // Teardown corner cases (no producer) lose nothing by timing.
        .unwrap_or(true);
        if due {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Microseconds since the recorder was created (0 when disabled).
    pub fn elapsed_micros(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Interns a label, returning its dense id. Hot instrumentation
    /// sites intern once (at wiring time) and record by id; the id is
    /// also the label's key in the metric store.
    /// Meaningless (always id 0) on a disabled recorder.
    pub fn intern(&self, label: &str) -> LabelId {
        match &self.inner {
            Some(inner) => LabelId(intern_locked(&mut lock(&inner.intern), label)),
            None => LabelId(0),
        }
    }

    /// Interns an event label and returns the shared text: the first
    /// occurrence allocates, every later occurrence clones the same
    /// `Arc`. A disabled recorder has no cache and falls back to a plain
    /// allocation.
    pub fn label(&self, label: &str) -> Arc<str> {
        match &self.inner {
            Some(inner) => {
                let mut st = lock(&inner.intern);
                let id = intern_locked(&mut st, label);
                Arc::clone(&st.names[id as usize])
            }
            None => Arc::from(label),
        }
    }

    // ----- fast path: record by pre-interned label id -----

    /// `Call:C→Java` by label id.
    #[inline]
    pub fn jni_enter_id(&self, thread: u16, func: LabelId) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(inner, thread, op::JNI_ENTER, 0, func.0, 0, 0);
                p.tick(inner);
            });
        }
    }

    /// `Return:Java→C` by label id: records the exit event *and* the
    /// per-function call metrics (latency only when a timer ran).
    #[inline]
    pub fn jni_exit_id(&self, thread: u16, func: LabelId, nanos: Option<u64>, failed: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let m = at(&mut p.local.jni, func.0);
                m.calls += 1;
                if failed {
                    m.failures += 1;
                }
                if let Some(ns) = nanos {
                    m.latency.record(ns);
                }
                p.trace(
                    inner,
                    thread,
                    op::JNI_EXIT,
                    u8::from(failed),
                    func.0,
                    nanos.unwrap_or(0),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// `Call:Java→C` by label id.
    #[inline]
    pub fn native_enter_id(&self, thread: u16, method: LabelId) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(inner, thread, op::NATIVE_ENTER, 0, method.0, 0, 0);
                p.tick(inner);
            });
        }
    }

    /// `Return:C→Java` by label id.
    #[inline]
    pub fn native_exit_id(&self, thread: u16, method: LabelId, nanos: u64, failed: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::NATIVE_EXIT,
                    u8::from(failed),
                    method.0,
                    nanos,
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// An FSM transition by label ids: records the event *and* the
    /// per-machine transition metrics in one pass.
    #[inline]
    pub fn fsm_transition_id(
        &self,
        thread: u16,
        machine: LabelId,
        transition: LabelId,
        outcome: FsmOutcome,
        entity: Option<LabelId>,
    ) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let m = at(&mut p.local.machines, machine.0);
                let flags = match outcome {
                    FsmOutcome::Moved => {
                        m.applied += 1;
                        0
                    }
                    FsmOutcome::Error => {
                        m.errors += 1;
                        1
                    }
                    FsmOutcome::NotApplicable => {
                        m.not_applicable += 1;
                        2
                    }
                };
                p.trace(
                    inner,
                    thread,
                    op::FSM_TRANSITION,
                    flags,
                    machine.0,
                    u64::from(transition.0),
                    entity.map(|e| u64::from(e.0) + 1).unwrap_or(0),
                );
                p.tick(inner);
            });
        }
    }

    /// An FSM transition whose entity is an opaque numeric key rather
    /// than an interned label. This is the hot-path variant for
    /// instrumentation sites whose entities are short-lived (every new
    /// reference is a fresh entity, so a label cache never hits): the
    /// key is packed by the caller from the entity's identity bits and
    /// costs nothing to produce. Exports render it as `entity#<hex>`;
    /// equal keys render equally, which is all forensics matching
    /// needs.
    #[inline]
    pub fn fsm_transition_keyed(
        &self,
        thread: u16,
        machine: LabelId,
        transition: LabelId,
        outcome: FsmOutcome,
        key: u64,
    ) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let m = at(&mut p.local.machines, machine.0);
                let flags = match outcome {
                    FsmOutcome::Moved => {
                        m.applied += 1;
                        0
                    }
                    FsmOutcome::Error => {
                        m.errors += 1;
                        1
                    }
                    FsmOutcome::NotApplicable => {
                        m.not_applicable += 1;
                        2
                    }
                };
                p.trace(
                    inner,
                    thread,
                    op::FSM_TRANSITION,
                    flags,
                    machine.0,
                    u64::from(transition.0),
                    ENTITY_KEY_BIT | (key & !ENTITY_KEY_BIT),
                );
                p.tick(inner);
            });
        }
    }

    /// A checker verdict by label ids.
    #[inline]
    pub fn verdict_id(
        &self,
        thread: u16,
        machine: LabelId,
        function: LabelId,
        action: VerdictAction,
    ) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                let flags = match action {
                    VerdictAction::Warn => 0,
                    VerdictAction::AbortVm => 1,
                    VerdictAction::ThrowException => 2,
                };
                p.trace(
                    inner,
                    thread,
                    op::VERDICT,
                    flags,
                    machine.0,
                    u64::from(function.0),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// Bumps a counter by pre-interned id.
    #[inline]
    pub fn count_id(&self, counter: LabelId, delta: u64) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                *at(&mut p.local.counters, counter.0) += delta;
                p.tick(inner);
            });
        }
    }

    /// A GC safepoint.
    #[inline]
    pub fn gc_safepoint_id(&self, thread: u16, collected: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::GC_SAFEPOINT,
                    u8::from(collected),
                    NO_LABEL,
                    0,
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// A completed GC cycle.
    #[inline]
    pub fn gc_id(&self, thread: u16, live: u64, freed: u64) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(inner, thread, op::GC, 0, NO_LABEL, live, freed);
                p.tick(inner);
            });
        }
    }

    /// A pin acquisition.
    #[inline]
    pub fn pin_acquire_id(&self, thread: u16, pin: u32) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::PIN_ACQUIRE,
                    0,
                    NO_LABEL,
                    u64::from(pin),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    /// A pin release.
    #[inline]
    pub fn pin_release_id(&self, thread: u16, pin: u32, ok: bool) {
        if let Some(inner) = &self.inner {
            Self::with_producer(inner, |p, inner| {
                p.trace(
                    inner,
                    thread,
                    op::PIN_RELEASE,
                    u8::from(ok),
                    NO_LABEL,
                    u64::from(pin),
                    0,
                );
                p.tick(inner);
            });
        }
    }

    // ----- compatibility path: record by enum / name -----

    /// Records an event given in enum form. This is the cold path: each
    /// label is resolved through the intern table per call. Hot sites
    /// should pre-intern and use the `*_id` methods.
    pub fn event(&self, thread: u16, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let raw = {
            let mut st = lock(&inner.intern);
            RawEvent::encode(0, 0, thread, &kind, |s| intern_locked(&mut st, s))
        };
        Self::with_producer(inner, |p, inner| {
            p.trace(inner, thread, raw.op, raw.flags, raw.label, raw.x, raw.y);
            p.tick(inner);
        });
    }

    /// Records a completed JNI call into the metrics store (by name;
    /// cold path).
    pub fn jni_call(&self, func: &str, nanos: u64, failed: bool) {
        if self.inner.is_some() {
            let id = self.intern(func);
            let Some(inner) = &self.inner else { return };
            Self::with_producer(inner, |p, inner| {
                let m = at(&mut p.local.jni, id.0);
                m.calls += 1;
                if failed {
                    m.failures += 1;
                }
                m.latency.record(nanos);
                p.tick(inner);
            });
        }
    }

    /// Records an FSM transition outcome into the metrics store (by
    /// name; cold path).
    pub fn fsm(&self, machine: &str, outcome: FsmOutcome) {
        if self.inner.is_some() {
            let id = self.intern(machine);
            let Some(inner) = &self.inner else { return };
            Self::with_producer(inner, |p, inner| {
                let m = at(&mut p.local.machines, id.0);
                match outcome {
                    FsmOutcome::Moved => m.applied += 1,
                    FsmOutcome::Error => m.errors += 1,
                    FsmOutcome::NotApplicable => m.not_applicable += 1,
                }
                p.tick(inner);
            });
        }
    }

    /// Bumps a named counter (by name; cold path).
    pub fn count(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            let id = self.intern(name);
            self.count_id(id, delta);
        }
    }

    // ----- export -----

    /// A point-in-time copy of the metrics plus coverage accounting, or
    /// `None` when disabled. Flushes the calling thread's batch first;
    /// other threads' unflushed tails (at most [`FLUSH_EVERY`] - 1
    /// operations each) appear after their next flush or exit.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        Self::flush_current(inner);
        let mut metrics = MetricsRegistry::new();
        {
            let st = lock(&inner.intern);
            let store = lock(&inner.store);
            let name = |id: usize| st.names.get(id).map(|n| &**n).unwrap_or("label#?");
            for (id, m) in store.jni.iter().enumerate() {
                if m.calls > 0 {
                    metrics.merge_jni(name(id), m);
                }
            }
            for (id, m) in store.machines.iter().enumerate() {
                if m.total() > 0 {
                    metrics.merge_machine(name(id), m);
                }
            }
            for (id, &c) in store.counters.iter().enumerate() {
                if c > 0 {
                    metrics.add(name(id), c);
                }
            }
        }
        Some(Snapshot {
            taken_at_micros: inner.start.elapsed().as_micros() as u64,
            metrics,
            coverage: self.coverage(),
        })
    }

    /// Trace-ring coverage accounting: events recorded and evicted
    /// (zeroed when disabled).
    pub fn coverage(&self) -> Coverage {
        Coverage {
            recorded: self.total_events(),
            ring_dropped: self.dropped_events(),
        }
    }

    /// The events currently held, merged across the per-writer rings
    /// into one sequence-ordered timeline (empty when disabled).
    ///
    /// Each ring is snapshotted without stopping its writer, then the
    /// per-ring streams — already sequence-ascending — are k-way merged
    /// by `(seq, slot index)`.
    pub fn events(&self) -> Vec<TraceEvent> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let names: Vec<Arc<str>> = lock(&inner.intern).names.clone();
        let mut streams: Vec<Vec<[u64; RAW_WORDS]>> = inner
            .slots
            .iter()
            .filter_map(|slot| slot.get())
            .map(|ring| ring.snapshot())
            .collect();
        for stream in &mut streams {
            // Exclusive rings are seq-sorted by construction; the shared
            // overflow ring interleaves several producers' blocks.
            if stream.windows(2).any(|w| w[0][0] > w[1][0]) {
                stream.sort_unstable_by_key(|words| words[0]);
            }
        }
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| Reverse((s[0][0], i)))
            .collect();
        let mut cursors = vec![0usize; streams.len()];
        let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        while let Some(Reverse((_, i))) = heap.pop() {
            let words = streams[i][cursors[i]];
            cursors[i] += 1;
            out.push(RawEvent::from_words(words).decode(&names));
            if let Some(next) = streams[i].get(cursors[i]) {
                heap.push(Reverse((next[0], i)));
            }
        }
        out
    }

    /// Total events ever recorded into the rings, including evicted ones.
    pub fn total_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .slots
                .iter()
                .filter_map(|slot| slot.get())
                .map(SpscRing::total_pushed)
                .sum(),
            None => 0,
        }
    }

    /// Events recorded but evicted from their ring (0 when disabled).
    /// When non-zero, [`Recorder::events`] is a truncated view of the
    /// run.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .slots
                .iter()
                .filter_map(|slot| slot.get())
                .map(SpscRing::dropped)
                .sum(),
            None => 0,
        }
    }

    /// The events as Chrome `chrome://tracing` JSON, or `None` when
    /// disabled. Evicted events surface as a `dropped-events` metadata
    /// instant.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|_| crate::export::chrome_trace(&self.events(), self.dropped_events()))
    }

    /// A plain-text dump of events + metrics, or `None` when disabled.
    /// Evicted events are counted in the header.
    pub fn text_dump(&self) -> Option<String> {
        let snapshot = self.snapshot()?;
        Some(crate::export::text_dump(&self.events(), &snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_THREAD;

    // The whole point of the Arc/atomic backend: handles cross threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    };

    fn safepoint(r: &Recorder, thread: u16) {
        r.event(thread, EventKind::GcSafepoint { collected: false });
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.timer().is_none());
        r.event(0, EventKind::GcSafepoint { collected: true });
        r.jni_call("NewStringUTF", 10, false);
        r.fsm("pinning", FsmOutcome::Moved);
        r.count("x", 1);
        assert!(r.snapshot().is_none());
        assert!(r.events().is_empty());
        assert_eq!(r.total_events(), 0);
        assert!(r.chrome_trace().is_none());
        assert!(r.text_dump().is_none());
        assert_eq!(r.coverage(), Coverage::default());
    }

    #[test]
    fn clones_share_the_backend() {
        let a = Recorder::enabled(16);
        let b = a.clone();
        a.event(
            1,
            EventKind::JniEnter {
                func: "GetObjectClass".into(),
            },
        );
        b.jni_call("GetObjectClass", 99, false);
        assert_eq!(a.total_events(), 1);
        assert_eq!(b.events().len(), 1);
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.metrics.total_jni_calls(), 1);
    }

    #[test]
    fn labels_are_interned_per_recorder() {
        let r = Recorder::enabled(4);
        let first = r.label("local-reference");
        let second = r.label("local-reference");
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeated labels share one allocation"
        );
        assert_eq!(&*r.label("other"), "other");
        // Ids are stable and dense.
        assert_eq!(r.intern("local-reference"), r.intern("local-reference"));
        assert_ne!(r.intern("local-reference"), r.intern("other"));
        // Disabled recorders have no cache but still hand back the text.
        assert_eq!(&*Recorder::disabled().label("x"), "x");
    }

    #[test]
    fn events_carry_monotonic_seq() {
        let r = Recorder::enabled(4);
        for _ in 0..6 {
            safepoint(&r, NO_THREAD);
        }
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        assert_eq!(r.total_events(), 6);
    }

    #[test]
    fn dropped_events_surface_in_dumps() {
        let r = Recorder::enabled(2);
        for _ in 0..5 {
            safepoint(&r, 0);
        }
        assert_eq!(r.dropped_events(), 3);
        assert!(r.text_dump().unwrap().contains("2 events held, 3 dropped"));
        assert!(r.chrome_trace().unwrap().contains("\"dropped\":3"));
        assert_eq!(Recorder::disabled().dropped_events(), 0);
    }

    #[test]
    fn timer_works_when_enabled() {
        let r = Recorder::enabled(4);
        let t = r.timer().expect("enabled recorder must hand out timers");
        let nanos = t.elapsed().as_nanos() as u64;
        r.jni_call("NewGlobalRef", nanos, false);
        let snap = r.snapshot().unwrap();
        let (_, m) = snap.metrics.jni_functions().next().unwrap();
        assert_eq!(m.calls, 1);
    }

    #[test]
    fn export_merges_interleaved_thread_tags_in_seq_order() {
        // All nine events come from this one OS thread, so they share a
        // single ring — it must hold all of them.
        let r = Recorder::enabled(16);
        for i in 0..9u16 {
            safepoint(&r, i % 3);
        }
        let events = r.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..9).collect::<Vec<u64>>(), "merged by seq");
        let threads: Vec<u16> = events.iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn ring_eviction_is_per_writer_thread() {
        let r = Recorder::enabled(2);
        std::thread::scope(|scope| {
            let busy = r.clone();
            let quiet = r.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    safepoint(&busy, 0);
                }
            });
            scope.spawn(move || safepoint(&quiet, 1));
        });
        // The busy writer overflowed its own ring; the quiet writer's
        // event survived in its separate ring.
        assert_eq!(r.dropped_events(), 3);
        let held: Vec<u16> = r.events().iter().map(|e| e.thread).collect();
        assert_eq!(held.len(), 3);
        assert!(held.contains(&1), "{held:?}");
    }

    #[test]
    fn concurrent_recording_from_spawned_threads() {
        let r = Recorder::enabled(1024);
        // `thread::spawn` + `join`, not `thread::scope`: join waits for
        // the thread's TLS destructors (which flush the metric batch),
        // while a scope can return before they have run. Scoped threads
        // that need exact metrics call `Recorder::flush` — see the
        // `scoped_threads_flush_explicitly` test below.
        let handles: Vec<_> = (0..4u16)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        safepoint(&r, t);
                        r.count("gc.safepoints", 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(r.total_events(), 400);
        assert_eq!(r.dropped_events(), 0);
        let events = r.events();
        assert_eq!(events.len(), 400);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.snapshot().unwrap().metrics.counter("gc.safepoints"), 400);
    }

    #[test]
    fn scoped_threads_flush_explicitly() {
        let r = Recorder::enabled(1024);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        r.count("gc.safepoints", 1);
                    }
                    // A scope may resume the parent before this thread's
                    // TLS destructors run, so flush before returning.
                    r.flush();
                });
            }
        });
        assert_eq!(r.snapshot().unwrap().metrics.counter("gc.safepoints"), 400);
    }

    /// The satellite-2 acceptance test: 32 concurrent writers, one
    /// strictly ordered, duplicate-free merged timeline with nothing
    /// lost.
    #[test]
    fn merge_of_32_concurrent_writers_is_strictly_ordered_and_complete() {
        const THREADS: u16 = 32;
        const PER_THREAD: u32 = 200;
        let r = Recorder::enabled(4096);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        r.event(
                            t,
                            EventKind::Gc {
                                live: u64::from(t),
                                freed: u64::from(i),
                            },
                        );
                    }
                });
            }
        });
        let events = r.events();
        assert_eq!(events.len(), (u32::from(THREADS) * PER_THREAD) as usize);
        assert_eq!(r.dropped_events(), 0);
        // Strictly ordered: no duplicates, no inversions.
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "timeline must be strictly seq-ordered and duplicate-free"
        );
        // Per-thread order is preserved exactly (freed counts ascend).
        let mut last: HashMap<u16, u64> = HashMap::new();
        for e in &events {
            if let EventKind::Gc { freed, .. } = e.kind {
                if let Some(prev) = last.insert(e.thread, freed) {
                    assert!(freed > prev, "thread {}: {prev} then {freed}", e.thread);
                }
            }
        }
    }

    #[test]
    fn one_call_per_sample_window_gets_a_timer() {
        let r = Recorder::enabled(16);
        let timed = (0..TIMER_SAMPLE).filter(|_| r.timer().is_some()).count();
        assert_eq!(timed, 1);
    }
}
