//! Lock-free concurrent entity-state tracking: [`AtomicStore`] keeps
//! per-entity state in `AtomicU16` cells and applies transitions with a
//! CAS loop against the compiled `states × transitions` matrix.
//!
//! The dense path is a lazily allocated slab of atomic cells indexed by
//! the key's [`DenseKey::dense_index`], with the `VACANT` sentinel
//! marking untracked entities. A transition is:
//!
//! 1. load the cell (Acquire); `VACANT` reads as the initial state,
//! 2. one matrix read answers "does it apply, and where does it go"
//!    ([`NOT_APPLICABLE`] → return `NotApplicable`, no write at all),
//! 3. `compare_exchange_weak` the cell to the destination (AcqRel); on
//!    contention the loop re-reads and re-decides from the current
//!    state, so every apply is linearizable per entity.
//!
//! Threads therefore never block each other on the hot path — there is
//! no lock to convoy on and no poisoning to recover from.
//!
//! # Ownership
//!
//! The paper encodes JNIEnv thread-locality as a JVM-state constraint:
//! an entity belongs to the thread that created it, and touching it
//! from another thread is itself a bug (`Error:EnvMismatch`). The store
//! tracks ownership with an `AtomicU16` owner cell per entity:
//!
//! * **First touch owns.** The first thread to apply a transition to an
//!   entity (or to read it with [`AtomicStore::state_of`]) claims it by
//!   CAS.
//! * **A foreign touch reports, and does not rehome.** A transition
//!   from any other thread still applies, and the outcome carries a
//!   [`CrossThreadUse`] naming the owner and the user; the owner stays
//!   the same.
//! * **Evict, then re-touch, rehomes.** [`AtomicStore::evict`] releases
//!   the owner cell, so the next thread to touch the entity owns it.
//!
//! Keys at or past [`DENSE_LIMIT`] (or with no dense index) spill to a
//! small sharded `RwLock<HashMap>` of reference-counted atomic slots:
//! lookups take a shard read lock (shared, so concurrent spill appliers
//! still proceed in parallel), and only first-insert and evict take the
//! write lock. The CAS on a spill slot runs under the read lock so a
//! racing evict cannot orphan an in-flight transition.
//!
//! Sweeps ([`AtomicStore::entities_in`] / `entities_not_in`) collect
//! dense and spilled keys and sort them, identical to the reference
//! [`StateStore`](crate::StateStore) — callers that need a *stable*
//! sweep against concurrent writers quiesce first (see
//! `minijvm::EpochParticipants`), which keeps replayed `.jtrace` output
//! byte-identical.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU16, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use jinn_obs::{FsmOutcome, LabelId, Recorder};

use crate::compiled::{CompiledMachine, DenseKey, DENSE_LIMIT, NOT_APPLICABLE, VACANT};
use crate::machine::{MachineSpec, StateId, TransitionId};
use crate::runtime::{EntityState, TransitionOutcome, UnknownTransition};

/// A foreign-thread touch of an entity: the paper's thread-locality
/// (`EnvMismatch`) situation, observed at the state-store layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossThreadUse {
    /// The thread that first touched (and therefore owns) the entity.
    pub owner: u16,
    /// The thread performing this transition.
    pub user: u16,
}

impl fmt::Display for CrossThreadUse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entity owned by thread-{} transitioned from thread-{}",
            self.owner, self.user
        )
    }
}

/// Outcome of a concurrent transition: the machine outcome plus, when
/// the calling thread is not the entity's owner, the thread-locality
/// violation that the foreign access constitutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedOutcome {
    /// What the machine did (identical to the serialized semantics).
    pub outcome: TransitionOutcome,
    /// `Some` exactly when a foreign thread touched the entity.
    pub cross_thread: Option<CrossThreadUse>,
}

/// Owner-cell sentinel: no thread has touched the entity yet. Thread id
/// `u16::MAX` is reserved (it is also `jinn_obs`'s `NO_THREAD`).
pub const NO_OWNER: u16 = u16::MAX;

/// Dense cells per lazily-allocated segment (2^14 = 16,384 entities,
/// 64 KiB of state + owner cells). [`DENSE_LIMIT`] / `SEGMENT_SIZE`
/// segments cover the whole dense range without eagerly allocating
/// megabytes per machine.
const SEGMENT_BITS: usize = 14;
const SEGMENT_SIZE: usize = 1 << SEGMENT_BITS;
const SEGMENTS: usize = DENSE_LIMIT >> SEGMENT_BITS;

/// Shard count of the spill map (cold path: huge or non-integer keys).
const SPILL_SHARDS: usize = 16;

/// One lazily-allocated run of dense cells.
struct Segment {
    states: Box<[AtomicU16]>,
    owners: Box<[AtomicU16]>,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            states: (0..SEGMENT_SIZE).map(|_| AtomicU16::new(VACANT)).collect(),
            owners: (0..SEGMENT_SIZE)
                .map(|_| AtomicU16::new(NO_OWNER))
                .collect(),
        }
    }
}

/// A spilled entity's cells, shared between the map and in-flight
/// appliers.
struct SpillSlot {
    state: AtomicU16,
    owner: AtomicU16,
}

impl SpillSlot {
    fn new() -> Arc<SpillSlot> {
        Arc::new(SpillSlot {
            state: AtomicU16::new(VACANT),
            owner: AtomicU16::new(NO_OWNER),
        })
    }
}

/// One spill shard: reader-parallel map from entity key to its slot.
type SpillShard<K> = RwLock<HashMap<K, Arc<SpillSlot>>>;

/// A lock-free concurrent entity-state store dispatching through a
/// [`CompiledMachine`].
///
/// Transition outcomes and sorted sweeps match the reference
/// [`StateStore`](crate::StateStore); ownership follows the module-level
/// rules (first touch owns, a foreign touch reports [`CrossThreadUse`],
/// evict then re-touch rehomes). The store also implements
/// [`Engine`](crate::Engine) (single-thread view, owner thread 0), so it
/// can be pooled by [`EnginePool`](crate::EnginePool) and driven by the
/// equivalence proptests.
///
/// Concurrent `evict` against `apply` on the *same* entity linearizes
/// in either order (an apply that loses the race re-attaches the entity
/// as a fresh first touch); ownership after such a race is best-effort,
/// as evict always releases it.
pub struct AtomicStore<K> {
    machine: Arc<CompiledMachine>,
    /// Store-local copy of the next-state matrix (tiny), one pointer
    /// chase from `self` on the hot path.
    next: Box<[u16]>,
    transitions: usize,
    initial: StateId,
    segments: Box<[OnceLock<Segment>]>,
    /// Tracked entities (dense + spill); maintained by CAS outcomes.
    len: AtomicUsize,
    spill: Box<[SpillShard<K>]>,
    recorder: Recorder,
    machine_label: LabelId,
    transition_labels: Box<[LabelId]>,
}

impl<K> fmt::Debug for AtomicStore<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicStore")
            .field("machine", &self.machine.name())
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn read_shard<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_shard<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Claims the owner cell at first touch; returns the owning thread.
fn claim_owner(cell: &AtomicU16, thread: u16) -> u16 {
    match cell.compare_exchange(NO_OWNER, thread, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => thread,
        Err(existing) => existing,
    }
}

impl<K: DenseKey> AtomicStore<K> {
    /// Compiles `machine` and creates an empty store.
    pub fn new(machine: MachineSpec) -> Self {
        Self::with_compiled(Arc::new(CompiledMachine::compile(machine)))
    }

    /// Creates an empty store over an already compiled machine (lets a
    /// fleet share one set of tables — including a discharged one, see
    /// [`CompiledMachine::compile_discharged`]).
    pub fn with_compiled(machine: Arc<CompiledMachine>) -> Self {
        AtomicStore {
            next: machine.matrix().to_vec().into_boxed_slice(),
            transitions: machine.transition_count(),
            initial: machine.initial(),
            segments: (0..SEGMENTS).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
            spill: (0..SPILL_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            recorder: Recorder::disabled(),
            machine_label: LabelId(0),
            transition_labels: Box::new([]),
            machine,
        }
    }

    /// The compiled machine this store dispatches through.
    pub fn compiled(&self) -> &CompiledMachine {
        &self.machine
    }

    /// The machine spec this store tracks.
    pub fn machine(&self) -> &MachineSpec {
        self.machine.spec()
    }

    /// Attaches an observability recorder; machine and transition names
    /// are interned once so the per-event path records ids only.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.machine_label = recorder.intern(self.machine.name());
        self.transition_labels = self
            .machine
            .spec()
            .transitions()
            .iter()
            .map(|t| recorder.intern(t.name()))
            .collect();
        self.recorder = recorder;
    }

    /// Number of tracked entities.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if no entities are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slab_index(entity: &K) -> Option<usize> {
        entity.dense_index().filter(|&i| i < DENSE_LIMIT)
    }

    #[inline]
    fn segment(&self, index: usize) -> &Segment {
        self.segments[index >> SEGMENT_BITS].get_or_init(Segment::new)
    }

    fn spill_shard(&self, entity: &K) -> &RwLock<HashMap<K, Arc<SpillSlot>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        entity.hash(&mut h);
        &self.spill[(h.finish() as usize) % self.spill.len()]
    }

    /// The spilled entity's slot, inserting an untracked (`VACANT`) one
    /// on first touch.
    fn spill_slot(&self, entity: &K) -> Arc<SpillSlot> {
        if let Some(slot) = read_shard(self.spill_shard(entity)).get(entity) {
            return Arc::clone(slot);
        }
        let mut map = write_shard(self.spill_shard(entity));
        Arc::clone(map.entry(entity.clone()).or_insert_with(SpillSlot::new))
    }

    /// The CAS loop shared by the dense and spill paths: decides the
    /// outcome from the *current* cell value, retrying on contention.
    #[inline]
    fn transition_cell(&self, cell: &AtomicU16, transition: TransitionId) -> TransitionOutcome {
        let mut seen = cell.load(Ordering::Acquire);
        loop {
            let current = if seen == VACANT {
                self.initial
            } else {
                StateId(seen)
            };
            let dest = self.next[current.index() * self.transitions + transition.index()];
            if dest == NOT_APPLICABLE {
                return TransitionOutcome::NotApplicable { current };
            }
            match cell.compare_exchange_weak(seen, dest, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if seen == VACANT {
                        self.len.fetch_add(1, Ordering::Relaxed);
                    }
                    return match self.machine.error_proto(transition) {
                        Some(proto) => TransitionOutcome::Error(Arc::clone(proto)),
                        None => TransitionOutcome::Moved {
                            from: current,
                            to: StateId(dest),
                        },
                    };
                }
                Err(actual) => seen = actual,
            }
        }
    }

    fn record(
        &self,
        thread: u16,
        entity: &K,
        transition: TransitionId,
        outcome: &TransitionOutcome,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let obs_outcome = match outcome {
            TransitionOutcome::Moved { .. } => FsmOutcome::Moved,
            TransitionOutcome::Error(_) => FsmOutcome::Error,
            TransitionOutcome::NotApplicable { .. } => FsmOutcome::NotApplicable,
        };
        match Self::slab_index(entity) {
            Some(i) => self.recorder.fsm_transition_keyed(
                thread,
                self.machine_label,
                self.transition_labels[transition.index()],
                obs_outcome,
                i as u64,
            ),
            None => {
                // Cold path: spilled keys intern their debug rendering
                // per event (the recorder's intern table dedupes).
                let label = self.recorder.intern(&format!("{entity:?}"));
                self.recorder.fsm_transition_id(
                    thread,
                    self.machine_label,
                    self.transition_labels[transition.index()],
                    obs_outcome,
                    Some(label),
                );
            }
        }
    }

    /// Applies `transition` to `entity` on behalf of `thread`. The
    /// transition applies whichever thread calls; a call from a thread
    /// other than the entity's owner also yields
    /// [`ShardedOutcome::cross_thread`].
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to the store's machine.
    pub fn apply(&self, thread: u16, entity: &K, transition: TransitionId) -> ShardedOutcome {
        assert!(
            transition.index() < self.transitions,
            "transition id {} out of range for machine `{}`",
            transition.index(),
            self.machine.name()
        );
        let (outcome, owner) = match Self::slab_index(entity) {
            Some(i) => {
                let seg = self.segment(i);
                let cell = i & (SEGMENT_SIZE - 1);
                let owner = claim_owner(&seg.owners[cell], thread);
                (self.transition_cell(&seg.states[cell], transition), owner)
            }
            None => {
                let slot = self.spill_slot(entity);
                // Hold the shard read lock across the CAS so a racing
                // evict (write lock) cannot orphan this transition.
                let _guard = read_shard(self.spill_shard(entity));
                let owner = claim_owner(&slot.owner, thread);
                (self.transition_cell(&slot.state, transition), owner)
            }
        };
        self.record(thread, entity, transition, &outcome);
        ShardedOutcome {
            outcome,
            cross_thread: (owner != thread).then_some(CrossThreadUse {
                owner,
                user: thread,
            }),
        }
    }

    /// Applies the transition named `name`; unknown names degrade to
    /// `NotApplicable` exactly as
    /// [`StateStore::apply_named`](crate::StateStore::apply_named).
    pub fn apply_named(&self, thread: u16, entity: &K, name: &str) -> ShardedOutcome {
        match self.try_apply_named(thread, entity, name) {
            Ok(out) => out,
            Err(_) => {
                if self.recorder.is_enabled() {
                    // Cold checker-misuse path, mirroring the reference
                    // store exactly.
                    let machine = self.recorder.intern("checker-internal");
                    let transition = self.recorder.intern(name);
                    let label = self.recorder.intern(&format!("{entity:?}"));
                    self.recorder.fsm_transition_id(
                        thread,
                        machine,
                        transition,
                        FsmOutcome::NotApplicable,
                        Some(label),
                    );
                }
                // An unknown name is still a touch: ownership is claimed
                // and cross-thread use reported, as for a known one.
                let owner = self.touch(thread, entity);
                let current = self.state_of(thread, entity);
                ShardedOutcome {
                    outcome: TransitionOutcome::NotApplicable { current },
                    cross_thread: (owner != thread).then_some(CrossThreadUse {
                        owner,
                        user: thread,
                    }),
                }
            }
        }
    }

    /// Fallible variant of [`AtomicStore::apply_named`].
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTransition`] when the machine has no transition
    /// of that name; the entity's state is untouched.
    pub fn try_apply_named(
        &self,
        thread: u16,
        entity: &K,
        name: &str,
    ) -> Result<ShardedOutcome, UnknownTransition> {
        let id = self
            .machine
            .transition_id(name)
            .ok_or_else(|| UnknownTransition {
                machine: self.machine.name().to_string(),
                name: name.to_string(),
            })?;
        Ok(self.apply(thread, entity, id))
    }

    /// Claims (or reads) the entity's owner: first touch owns, one CAS.
    fn touch(&self, thread: u16, entity: &K) -> u16 {
        match Self::slab_index(entity) {
            Some(i) => claim_owner(&self.segment(i).owners[i & (SEGMENT_SIZE - 1)], thread),
            None => claim_owner(&self.spill_slot(entity).owner, thread),
        }
    }

    /// Current state of `entity` as seen from `thread`, or the initial
    /// state if never seen. A read is a touch: it fixes the entity's
    /// owner if unowned.
    pub fn state_of(&self, thread: u16, entity: &K) -> StateId {
        match Self::slab_index(entity) {
            Some(i) => {
                let seg = self.segment(i);
                let cell = i & (SEGMENT_SIZE - 1);
                claim_owner(&seg.owners[cell], thread);
                match seg.states[cell].load(Ordering::Acquire) {
                    VACANT => self.initial,
                    s => StateId(s),
                }
            }
            None => {
                let slot = self.spill_slot(entity);
                claim_owner(&slot.owner, thread);
                match slot.state.load(Ordering::Acquire) {
                    VACANT => self.initial,
                    s => StateId(s),
                }
            }
        }
    }

    /// Returns `true` if the entity has been attached (transitioned at
    /// least once). Unlike [`AtomicStore::state_of`] this is a pure
    /// read: it claims no ownership and allocates nothing.
    pub fn contains(&self, entity: &K) -> bool {
        match Self::slab_index(entity) {
            Some(i) => match self.segments[i >> SEGMENT_BITS].get() {
                Some(seg) => seg.states[i & (SEGMENT_SIZE - 1)].load(Ordering::Acquire) != VACANT,
                None => false,
            },
            None => match read_shard(self.spill_shard(entity)).get(entity) {
                Some(slot) => slot.state.load(Ordering::Acquire) != VACANT,
                None => false,
            },
        }
    }

    /// Removes an entity; its owner is released so the next toucher
    /// rehomes it.
    pub fn evict(&self, entity: &K) -> Option<EntityState> {
        match Self::slab_index(entity) {
            Some(i) => {
                let seg = self.segments[i >> SEGMENT_BITS].get()?;
                let cell = i & (SEGMENT_SIZE - 1);
                let prev = seg.states[cell].swap(VACANT, Ordering::AcqRel);
                seg.owners[cell].store(NO_OWNER, Ordering::Release);
                if prev == VACANT {
                    None
                } else {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    Some(EntityState::of(StateId(prev)))
                }
            }
            None => {
                let mut map = write_shard(self.spill_shard(entity));
                let slot = map.remove(entity)?;
                let prev = slot.state.swap(VACANT, Ordering::AcqRel);
                if prev == VACANT {
                    None
                } else {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    Some(EntityState::of(StateId(prev)))
                }
            }
        }
    }

    fn sweep(&self, pred: impl Fn(StateId) -> bool) -> Vec<K>
    where
        K: Ord,
    {
        let mut out: Vec<K> = Vec::new();
        for (s, segment) in self.segments.iter().enumerate() {
            let Some(seg) = segment.get() else { continue };
            for (c, cell) in seg.states.iter().enumerate() {
                let state = cell.load(Ordering::Acquire);
                if state != VACANT && pred(StateId(state)) {
                    let index = (s << SEGMENT_BITS) | c;
                    out.push(K::from_dense_index(index).expect("slab index came from dense_index"));
                }
            }
        }
        for shard in self.spill.iter() {
            for (k, slot) in read_shard(shard).iter() {
                let state = slot.state.load(Ordering::Acquire);
                if state != VACANT && pred(StateId(state)) {
                    out.push(k.clone());
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Entities currently in `state`, sorted by entity key.
    pub fn entities_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        self.sweep(|s| s == state)
    }

    /// Entities whose current state is *not* `state`, sorted by entity
    /// key: the deterministic program-termination leak sweep. Run it
    /// against a quiesced epoch for a stable answer under concurrency.
    pub fn entities_not_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        self.sweep(|s| s != state)
    }

    /// Clears all tracked entities and ownership (allocated segments are
    /// kept and reset).
    pub fn clear(&self) {
        for segment in self.segments.iter() {
            let Some(seg) = segment.get() else { continue };
            for cell in seg.states.iter() {
                cell.store(VACANT, Ordering::Release);
            }
            for cell in seg.owners.iter() {
                cell.store(NO_OWNER, Ordering::Release);
            }
        }
        for shard in self.spill.iter() {
            write_shard(shard).clear();
        }
        self.len.store(0, Ordering::Release);
    }
}

impl<K: DenseKey> crate::engine::Engine<K> for AtomicStore<K> {
    fn for_machine(machine: MachineSpec) -> Self {
        AtomicStore::new(machine)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        AtomicStore::set_recorder(self, recorder);
    }

    fn spec(&self) -> &MachineSpec {
        self.machine()
    }

    fn len(&self) -> usize {
        AtomicStore::len(self)
    }

    fn state_of(&self, entity: &K) -> StateId {
        AtomicStore::state_of(self, 0, entity)
    }

    fn contains(&self, entity: &K) -> bool {
        AtomicStore::contains(self, entity)
    }

    fn apply(&mut self, entity: &K, transition: TransitionId) -> TransitionOutcome {
        AtomicStore::apply(self, 0, entity, transition).outcome
    }

    fn apply_named(&mut self, entity: &K, name: &str) -> TransitionOutcome {
        AtomicStore::apply_named(self, 0, entity, name).outcome
    }

    fn try_apply_named(
        &mut self,
        entity: &K,
        name: &str,
    ) -> Result<TransitionOutcome, UnknownTransition> {
        AtomicStore::try_apply_named(self, 0, entity, name).map(|o| o.outcome)
    }

    fn evict(&mut self, entity: &K) -> Option<EntityState> {
        AtomicStore::evict(self, entity)
    }

    fn entities_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        AtomicStore::entities_in(self, state)
    }

    fn entities_not_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        AtomicStore::entities_not_in(self, state)
    }

    fn clear(&mut self) {
        AtomicStore::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ConstraintClass, Direction, EntityKind};
    use crate::runtime::StateStore;

    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicStore<u64>>();
    };

    fn machine() -> MachineSpec {
        MachineSpec::builder("local-ref", ConstraintClass::Resource)
            .entity(EntityKind::Reference)
            .state("BeforeAcquire")
            .state("Acquired")
            .state("Released")
            .error_state("Dangling", "use of dangling reference in {function}")
            .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
                t.on(Direction::CallJavaToC, "native method taking reference")
            })
            .transition("Release", "Acquired", "Released", |t| {
                t.on(Direction::ReturnCToJava, "any native method")
            })
            .transition("UseAfterRelease", "Released", "Dangling", |t| {
                t.on(Direction::CallCToJava, "JNI function taking reference")
            })
            .build()
            .unwrap()
    }

    #[test]
    fn lifecycle_matches_reference_and_first_touch_owners() {
        let atomic: AtomicStore<u32> = AtomicStore::new(machine());
        // The oracle: the reference store for outcomes, plus a map from
        // entity to the thread that touched it first (nothing is
        // evicted here, so the first toucher owns it throughout).
        let mut reference: StateStore<u32> = StateStore::new(machine());
        let mut owners: HashMap<u32, u16> = HashMap::new();
        for (thread, key) in [(0u16, 7u32), (1, 9), (0, 7), (3, 7)] {
            for name in ["Acquire", "Release", "UseAfterRelease", "Nope"] {
                let owner = *owners.entry(key).or_insert(thread);
                let expected = ShardedOutcome {
                    outcome: reference.apply_named(&key, name),
                    cross_thread: (owner != thread).then_some(CrossThreadUse {
                        owner,
                        user: thread,
                    }),
                };
                assert_eq!(
                    atomic.apply_named(thread, &key, name),
                    expected,
                    "thread {thread}, key {key}, transition {name}"
                );
            }
        }
        assert_eq!(atomic.len(), reference.len());
        let released = atomic.machine().state_id("Released").unwrap();
        assert_eq!(
            atomic.entities_not_in(released),
            reference.entities_not_in(released)
        );
        let err = atomic.try_apply_named(0, &7, "Nope").unwrap_err();
        assert_eq!(err, reference.try_apply_named(&7, "Nope").unwrap_err());
        assert_eq!(
            (err.machine.as_str(), err.name.as_str()),
            ("local-ref", "Nope")
        );
    }

    #[test]
    fn foreign_thread_use_raises_cross_thread_and_still_transitions() {
        let store: AtomicStore<u32> = AtomicStore::new(machine());
        store.apply_named(3, &42, "Acquire");
        let out = store.apply_named(9, &42, "Release");
        assert!(out.outcome.applied());
        assert_eq!(out.cross_thread, Some(CrossThreadUse { owner: 3, user: 9 }));
        let released = store.machine().state_id("Released").unwrap();
        assert_eq!(store.state_of(3, &42), released);
    }

    #[test]
    fn eviction_rehomes_on_next_touch() {
        let store: AtomicStore<u32> = AtomicStore::new(machine());
        store.apply_named(1, &5, "Acquire");
        assert!(store.evict(&5).is_some());
        assert!(store.evict(&5).is_none(), "second evict is a no-op");
        let out = store.apply_named(2, &5, "Acquire");
        assert!(out.cross_thread.is_none(), "entity rehomed after evict");
    }

    #[test]
    fn spill_keys_work_and_sweep_sorted() {
        let store: AtomicStore<u64> = AtomicStore::new(machine());
        let dense = 42u64;
        let sparse = (DENSE_LIMIT as u64) + 99;
        store.apply_named(0, &dense, "Acquire");
        store.apply_named(0, &sparse, "Acquire");
        assert_eq!(store.len(), 2);
        assert!(store.contains(&dense));
        assert!(store.contains(&sparse));
        let acquired = store.machine().state_id("Acquired").unwrap();
        assert_eq!(store.entities_in(acquired), vec![dense, sparse]);
        assert!(store.evict(&sparse).is_some());
        assert!(store.evict(&sparse).is_none());
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.state_of(0, &dense), store.machine().initial());
    }

    #[test]
    fn not_applicable_first_touch_leaves_entity_untracked() {
        let store: AtomicStore<u32> = AtomicStore::new(machine());
        let out = store.apply_named(0, &7, "Release");
        assert!(!out.outcome.applied());
        assert_eq!(store.len(), 0);
        assert!(!store.contains(&7));
    }

    #[test]
    fn parallel_disjoint_threads_match_serial_multiset() {
        let store: AtomicStore<u64> = AtomicStore::new(machine());
        std::thread::scope(|scope| {
            for t in 0..8u16 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = u64::from(t) * 1000 + i;
                        let out = store.apply_named(t, &key, "Acquire");
                        assert!(out.outcome.applied());
                        assert!(out.cross_thread.is_none());
                        if i % 2 == 0 {
                            assert!(store.apply_named(t, &key, "Release").outcome.applied());
                        }
                    }
                });
            }
        });
        let mut serial: StateStore<u64> = StateStore::new(machine());
        for t in 0..8u16 {
            for i in 0..200u64 {
                let key = u64::from(t) * 1000 + i;
                serial.apply_named(&key, "Acquire");
                if i % 2 == 0 {
                    serial.apply_named(&key, "Release");
                }
            }
        }
        let released = store.machine().state_id("Released").unwrap();
        assert_eq!(
            store.entities_not_in(released),
            serial.entities_not_in(released),
            "lock-free leak sweep must equal the serialized sweep"
        );
        assert_eq!(store.len(), serial.len());
    }

    #[test]
    fn contended_same_entity_applies_linearize() {
        // 8 threads hammer one entity with Acquire; exactly one can win
        // the BeforeAcquire->Acquired edge, everyone else must see
        // NotApplicable{Acquired} — never a torn or duplicated Move.
        let store: AtomicStore<u32> = AtomicStore::new(machine());
        let id = store.compiled().transition_id("Acquire").unwrap();
        let moved = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..8u16 {
                let store = &store;
                let moved = &moved;
                scope.spawn(move || {
                    for _ in 0..100 {
                        if store.apply(t, &1, id).outcome.applied() {
                            moved.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(moved.load(Ordering::Relaxed), 1, "one winner exactly");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn discharged_transition_is_not_applicable_everywhere() {
        let use_after = TransitionId(2); // UseAfterRelease
        let compiled = Arc::new(CompiledMachine::compile_discharged(machine(), &[use_after]));
        assert!(compiled.is_elided(use_after));
        assert_eq!(compiled.elided_transitions(), vec!["UseAfterRelease"]);
        let store: AtomicStore<u32> = AtomicStore::with_compiled(compiled);
        store.apply_named(0, &1, "Acquire");
        store.apply_named(0, &1, "Release");
        let out = store.apply_named(0, &1, "UseAfterRelease");
        assert!(
            !out.outcome.applied(),
            "elided transition must be NotApplicable, got {out:?}"
        );
    }
}
