//! The [`Recorder`]: the cheaply clonable handle every substrate crate
//! carries.
//!
//! A recorder is either *enabled* — backed by one state behind one
//! mutex: an intern table, a ring of the newest events, and exact
//! per-label metrics — or *disabled*, in which case every recording call
//! is a single `Option` discriminant check and an immediate return.
//!
//! ## One writer per recorder
//!
//! Every production recorder is written by one thread: a session's live
//! executor, or the worker that judges it. The record path is therefore
//! one uncontended lock per operation:
//!
//! * **events** are encoded as fixed-width [`RawEvent`] records straight
//!   into the recorder's ring (labels are intern-table ids, not
//!   strings); the ring grows on demand up to its capacity, then evicts
//!   the oldest record;
//! * **sequence numbers** are the count of records ever pushed, so the
//!   exported timeline is gap-free and strictly ascending;
//! * **timestamps** are batched: one clock read per [`STAMP_BATCH`]
//!   events;
//! * **metrics** go straight into the per-label store, so a snapshot is
//!   exact whichever thread takes it.
//!
//! Clones may record from several threads at once. They serialize on
//! the lock, so nothing is lost or torn, but their events interleave in
//! one ring and evict each other. No recorder method calls another
//! while it holds the lock (the std mutex is not reentrant).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::event::{EventKind, FsmOutcome, TraceEvent, VerdictAction};
use crate::metrics::{Coverage, FuncMetrics, MachineMetrics, MetricsRegistry, Snapshot};
use crate::raw::{op, LabelId, RawEvent, ENTITY_KEY_BIT, NO_LABEL};

/// Default ring capacity per recorder for [`Recorder::enabled`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One call in this many (per recorder) gets a latency timer when timers
/// are enabled; see [`Recorder::timer`].
const TIMER_SAMPLE: u32 = 8;

/// Events per wall-clock read: timestamps within a batch share one
/// reading, so timelines are coarse to roughly this granularity.
pub const STAMP_BATCH: u32 = 32;

/// Label interning state: text → dense id, and id → shared text.
#[derive(Debug, Default)]
struct InternState {
    ids: HashMap<Box<str>, u32>,
    names: Vec<Arc<str>>,
}

impl InternState {
    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(Box::from(label), id);
        self.names.push(Arc::from(label));
        id
    }
}

/// Id-keyed metric aggregates; resolved to names at snapshot time.
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

/// Counts one FSM outcome and returns its record flag bits.
fn count_outcome(m: &mut MachineMetrics, outcome: FsmOutcome) -> u8 {
    match outcome {
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
    }
}

/// Everything an enabled recorder holds, behind its one lock.
#[derive(Debug)]
struct State {
    intern: InternState,
    /// The newest `capacity` records; record `n` lives at `n & mask`.
    ring: Vec<RawEvent>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// Records ever pushed, including evicted ones; the next sequence
    /// number.
    pushed: u64,
    /// The batched clock reading stamped on records.
    micros: u64,
    /// Calls until the next latency timer is handed out.
    timer_left: u32,
    metrics: IdMetrics,
}

impl State {
    /// Appends a record, evicting the oldest once the ring is full.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the five record words plus the clock
    fn push(&mut self, start: Instant, thread: u16, op: u8, flags: u8, label: u32, x: u64, y: u64) {
        let seq = self.pushed;
        if seq.is_multiple_of(u64::from(STAMP_BATCH)) {
            self.micros = start.elapsed().as_micros() as u64;
        }
        let event = RawEvent {
            seq,
            micros: self.micros,
            thread,
            op,
            flags,
            label,
            x,
            y,
        };
        let slot = (seq & self.mask) as usize;
        if slot == self.ring.len() {
            self.ring.push(event);
        } else {
            self.ring[slot] = event;
        }
        self.pushed += 1;
    }

    fn dropped(&self) -> u64 {
        self.pushed.saturating_sub(self.mask + 1)
    }

    /// The held records, oldest first. Until the ring fills, `split`
    /// is its length and the whole ring is the first part.
    fn held(&self) -> impl Iterator<Item = &RawEvent> {
        let split = (self.pushed & self.mask) as usize;
        self.ring[split..].iter().chain(&self.ring[..split])
    }
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    state: Mutex<State>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking recorder user must not cascade into every other
        // thread's recording path: recover the data under the poison.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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

    /// A recorder with one ring per recorder, holding the newest
    /// `ring_capacity` events (rounded up to a power of two, minimum 2;
    /// allocated as events arrive), and an empty metrics store.
    pub fn enabled(ring_capacity: usize) -> Recorder {
        let capacity = ring_capacity.max(2).next_power_of_two();
        Recorder {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                state: Mutex::new(State {
                    intern: InternState::default(),
                    ring: Vec::new(),
                    mask: (capacity - 1) as u64,
                    pushed: 0,
                    micros: 0,
                    timer_left: 0,
                    metrics: IdMetrics::default(),
                }),
            })),
        }
    }

    /// Whether this recorder is actually recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a latency timer — `None` when disabled, so that path never
    /// touches the clock.
    ///
    /// Only one call in `TIMER_SAMPLE` (per recorder) gets a timer: a
    /// clock read costs more than an entire ring write, and the latency
    /// *histograms* only need a representative sample, not a census. Call counts are exact regardless — only
    /// the histogram population is thinned.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        let inner = self.inner.as_ref()?;
        let due = {
            let mut st = inner.lock();
            if st.timer_left == 0 {
                st.timer_left = TIMER_SAMPLE - 1;
                true
            } else {
                st.timer_left -= 1;
                false
            }
        };
        due.then(Instant::now)
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
            Some(inner) => LabelId(inner.lock().intern.intern(label)),
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
                let mut st = inner.lock();
                let id = st.intern.intern(label);
                Arc::clone(&st.intern.names[id as usize])
            }
            None => Arc::from(label),
        }
    }

    /// Pushes one record (no metrics).
    #[inline]
    fn trace(&self, thread: u16, op: u8, flags: u8, label: u32, x: u64, y: u64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .push(inner.start, thread, op, flags, label, x, y);
        }
    }

    // ----- fast path: record by pre-interned label id -----

    /// `Call:C→Java` by label id.
    #[inline]
    pub fn jni_enter_id(&self, thread: u16, func: LabelId) {
        self.trace(thread, op::JNI_ENTER, 0, func.0, 0, 0);
    }

    /// `Return:Java→C` by label id: records the exit event *and* the
    /// per-function call metrics (latency only when a timer ran).
    #[inline]
    pub fn jni_exit_id(&self, thread: u16, func: LabelId, nanos: Option<u64>, failed: bool) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            let m = at(&mut st.metrics.jni, func.0);
            m.calls += 1;
            if failed {
                m.failures += 1;
            }
            if let Some(ns) = nanos {
                m.latency.record(ns);
            }
            st.push(
                inner.start,
                thread,
                op::JNI_EXIT,
                u8::from(failed),
                func.0,
                nanos.unwrap_or(0),
                0,
            );
        }
    }

    /// `Call:Java→C` by label id.
    #[inline]
    pub fn native_enter_id(&self, thread: u16, method: LabelId) {
        self.trace(thread, op::NATIVE_ENTER, 0, method.0, 0, 0);
    }

    /// `Return:C→Java` by label id.
    #[inline]
    pub fn native_exit_id(&self, thread: u16, method: LabelId, nanos: u64, failed: bool) {
        self.trace(
            thread,
            op::NATIVE_EXIT,
            u8::from(failed),
            method.0,
            nanos,
            0,
        );
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
        let entity = entity.map(|e| u64::from(e.0) + 1).unwrap_or(0);
        self.fsm_transition(thread, machine, transition, outcome, entity);
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
        let entity = ENTITY_KEY_BIT | (key & !ENTITY_KEY_BIT);
        self.fsm_transition(thread, machine, transition, outcome, entity);
    }

    /// An FSM transition with its entity word already encoded.
    #[inline]
    fn fsm_transition(
        &self,
        thread: u16,
        machine: LabelId,
        transition: LabelId,
        outcome: FsmOutcome,
        entity: u64,
    ) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            let flags = count_outcome(at(&mut st.metrics.machines, machine.0), outcome);
            st.push(
                inner.start,
                thread,
                op::FSM_TRANSITION,
                flags,
                machine.0,
                u64::from(transition.0),
                entity,
            );
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
        let flags = match action {
            VerdictAction::Warn => 0,
            VerdictAction::AbortVm => 1,
            VerdictAction::ThrowException => 2,
        };
        self.trace(
            thread,
            op::VERDICT,
            flags,
            machine.0,
            u64::from(function.0),
            0,
        );
    }

    /// Bumps a counter by pre-interned id.
    #[inline]
    pub fn count_id(&self, counter: LabelId, delta: u64) {
        if let Some(inner) = &self.inner {
            *at(&mut inner.lock().metrics.counters, counter.0) += delta;
        }
    }

    /// A GC safepoint.
    #[inline]
    pub fn gc_safepoint_id(&self, thread: u16, collected: bool) {
        self.trace(
            thread,
            op::GC_SAFEPOINT,
            u8::from(collected),
            NO_LABEL,
            0,
            0,
        );
    }

    /// A completed GC cycle.
    #[inline]
    pub fn gc_id(&self, thread: u16, live: u64, freed: u64) {
        self.trace(thread, op::GC, 0, NO_LABEL, live, freed);
    }

    /// A pin acquisition.
    #[inline]
    pub fn pin_acquire_id(&self, thread: u16, pin: u32) {
        self.trace(thread, op::PIN_ACQUIRE, 0, NO_LABEL, u64::from(pin), 0);
    }

    /// A pin release.
    #[inline]
    pub fn pin_release_id(&self, thread: u16, pin: u32, ok: bool) {
        self.trace(
            thread,
            op::PIN_RELEASE,
            u8::from(ok),
            NO_LABEL,
            u64::from(pin),
            0,
        );
    }

    // ----- compatibility path: record by enum / name -----

    /// Records an event given in enum form. This is the cold path: each
    /// label is resolved through the intern table per call. Hot sites
    /// should pre-intern and use the `*_id` methods.
    pub fn event(&self, thread: u16, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        let raw = RawEvent::encode(0, 0, thread, &kind, |s| st.intern.intern(s));
        st.push(
            inner.start,
            thread,
            raw.op,
            raw.flags,
            raw.label,
            raw.x,
            raw.y,
        );
    }

    /// Records a completed JNI call into the metrics store (by name;
    /// cold path).
    pub fn jni_call(&self, func: &str, nanos: u64, failed: bool) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        let id = st.intern.intern(func);
        let m = at(&mut st.metrics.jni, id);
        m.calls += 1;
        if failed {
            m.failures += 1;
        }
        m.latency.record(nanos);
    }

    /// Records an FSM transition outcome into the metrics store (by
    /// name; cold path).
    pub fn fsm(&self, machine: &str, outcome: FsmOutcome) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        let id = st.intern.intern(machine);
        count_outcome(at(&mut st.metrics.machines, id), outcome);
    }

    /// Bumps a named counter (by name; cold path).
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        let id = st.intern.intern(name);
        *at(&mut st.metrics.counters, id) += delta;
    }

    // ----- export -----

    /// A point-in-time copy of the metrics plus coverage accounting, or
    /// `None` when disabled. Exact: every recorded operation is in it,
    /// whichever thread recorded it.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let st = inner.lock();
        let mut metrics = MetricsRegistry::new();
        let name = |id: usize| st.intern.names.get(id).map(|n| &**n).unwrap_or("label#?");
        for (id, m) in st.metrics.jni.iter().enumerate() {
            if m.calls > 0 {
                metrics.merge_jni(name(id), m);
            }
        }
        for (id, m) in st.metrics.machines.iter().enumerate() {
            if m.total() > 0 {
                metrics.merge_machine(name(id), m);
            }
        }
        for (id, &c) in st.metrics.counters.iter().enumerate() {
            if c > 0 {
                metrics.add(name(id), c);
            }
        }
        Some(Snapshot {
            taken_at_micros: inner.start.elapsed().as_micros() as u64,
            metrics,
            coverage: Coverage {
                recorded: st.pushed,
                ring_dropped: st.dropped(),
            },
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

    /// The events currently held, oldest first: a sequence-ascending
    /// run with no gaps (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let st = inner.lock();
        st.held().map(|raw| raw.decode(&st.intern.names)).collect()
    }

    /// Total events ever recorded into the ring, including evicted ones.
    pub fn total_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.lock().pushed,
            None => 0,
        }
    }

    /// Events recorded but evicted from the ring (0 when disabled).
    /// When non-zero, [`Recorder::events`] is a truncated view of the
    /// run.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.lock().dropped(),
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

    // Handles cross threads: the backend is an `Arc<Mutex<_>>`.
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
    fn capacity_rounds_up_to_a_power_of_two() {
        for (asked, held) in [(0, 2), (1, 2), (5, 8), (8, 8)] {
            let r = Recorder::enabled(asked);
            for _ in 0..20 {
                safepoint(&r, 0);
            }
            assert_eq!(r.events().len(), held, "capacity {asked}");
            assert_eq!(r.dropped_events(), 20 - held as u64);
        }
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
    fn export_keeps_interleaved_thread_tags_in_seq_order() {
        let r = Recorder::enabled(16);
        for i in 0..9u16 {
            safepoint(&r, i % 3);
        }
        let events = r.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..9).collect::<Vec<u64>>(), "ordered by seq");
        let threads: Vec<u16> = events.iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn one_ring_keeps_the_newest_events_across_writers() {
        let r = Recorder::enabled(2);
        std::thread::scope(|scope| {
            let busy = r.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    safepoint(&busy, 0);
                }
            });
        });
        std::thread::scope(|scope| {
            let quiet = r.clone();
            scope.spawn(move || safepoint(&quiet, 1));
        });
        // One ring for both writers: the quiet writer's event evicted
        // the busy writer's older ones.
        assert_eq!(r.total_events(), 6);
        assert_eq!(r.dropped_events(), 4);
        let held: Vec<(u64, u16)> = r.events().iter().map(|e| (e.seq, e.thread)).collect();
        assert_eq!(held, vec![(4, 0), (5, 1)]);
    }

    #[test]
    fn concurrent_recording_from_spawned_threads() {
        let r = Recorder::enabled(1024);
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
    fn scoped_threads_metrics_are_visible_without_a_flush() {
        let r = Recorder::enabled(1024);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        r.count("gc.safepoints", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().unwrap().metrics.counter("gc.safepoints"), 400);
    }

    /// 32 concurrent writers, one strictly ordered, duplicate-free
    /// timeline with nothing lost.
    #[test]
    fn merge_of_32_concurrent_writers_is_strictly_ordered_and_complete() {
        const THREADS: u16 = 32;
        const PER_THREAD: u32 = 200;
        let r = Recorder::enabled(8192);
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
    fn concurrent_reader_sees_gapless_seq_runs() {
        const EVENTS: u64 = 20_000;
        let r = Recorder::enabled(8);
        let writer = {
            let r = r.clone();
            std::thread::spawn(move || {
                for n in 0..EVENTS {
                    r.event(0, EventKind::Gc { live: n, freed: n });
                }
            })
        };
        // Export while the writer runs: every call returns a contiguous,
        // seq-ascending run whose payloads match their sequence numbers.
        for _ in 0..200 {
            let events = r.events();
            assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
            for e in &events {
                assert!(matches!(e.kind, EventKind::Gc { live, .. } if live == e.seq));
            }
        }
        writer.join().unwrap();
        let held: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(held, (EVENTS - 8..EVENTS).collect::<Vec<u64>>());
    }

    #[test]
    fn one_call_per_sample_window_gets_a_timer() {
        let r = Recorder::enabled(16);
        let timed = (0..TIMER_SAMPLE).filter(|_| r.timer().is_some()).count();
        assert_eq!(timed, 1);
    }
}
