//! Compiled dispatch: lowering a [`MachineSpec`] into dense tables so
//! the per-event path is a couple of array reads instead of name
//! resolution and hash probes.
//!
//! The paper's pitch is that synthesized checkers are cheap enough to
//! leave on; this module moves everything that *can* be done once — at
//! synthesis/build time — out of the per-event path.
//! [`CompiledMachine`] lowers the spec into a dense `states ×
//! transitions` next-state matrix ([`NOT_APPLICABLE`] sentinel for
//! cells where the transition's source state does not match), plus a
//! pre-resolved [`ErrorEntered`] prototype per error-entering
//! transition and pre-interned `Arc<str>` labels, so applying a
//! transition is one bounds-checked array read and one branch.
//!
//! [`CompiledStore`] dispatches through these tables, keeping small
//! integer keys in a `Vec` of state cells (see [`DenseKey`] and
//! [`DENSE_LIMIT`]). It is single-threaded, like the checker state it
//! models: a `JNIEnv` belongs to one thread. The reference
//! [`StateStore`](crate::StateStore) remains the oracle: the
//! equivalence proptest in `tests/engine_equivalence.rs` proves outcome
//! parity between the two on arbitrary machines and event streams.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use jinn_obs::{FsmOutcome, LabelId, Recorder};

use crate::engine::Engine;
use crate::machine::{MachineSpec, StateId, TransitionId};
use crate::runtime::{EntityState, ErrorEntered, TransitionOutcome, UnknownTransition};

/// Sentinel cell value in the next-state matrix: the transition's source
/// state does not match, so applying it is a no-op (`NotApplicable`).
///
/// A machine may therefore declare at most `u16::MAX` states; the
/// builder's `u16` state ids already enforce that bound.
pub const NOT_APPLICABLE: u16 = u16::MAX;

/// Cell cap for [`CompiledStore`]: keys whose
/// [`DenseKey::dense_index`] is below this live in the store's `Vec` of
/// state cells; keys at or above it — or keys with no dense index at
/// all — spill to a hash map. This keeps a store with a few huge keys
/// (e.g. pointer-valued handles) from allocating a multi-gigabyte
/// `Vec`: at most `DENSE_LIMIT` two-byte cells per store.
pub const DENSE_LIMIT: usize = 1 << 20;

/// Cell value for "entity not tracked" in [`CompiledStore`]'s `Vec`.
/// It equals [`NOT_APPLICABLE`], which is never a state id.
const VACANT: u16 = u16::MAX;

/// A [`MachineSpec`] lowered into dense dispatch tables.
///
/// Lowering rules:
///
/// * `next[from.index() * transitions + t.index()]` holds the
///   destination state id, or [`NOT_APPLICABLE`] when `from` is not the
///   transition's source state. One `(state, transition)` read answers
///   "does it apply, and where does it go".
/// * Each transition into an error state gets a fully formatted
///   [`ErrorEntered`] prototype at compile time; an error hit clones the
///   prototype instead of formatting strings on the hot path.
/// * Machine and transition names are interned as `Arc<str>` once, so an
///   enabled recorder clones a pointer per event instead of allocating.
#[derive(Debug, Clone)]
pub struct CompiledMachine {
    spec: MachineSpec,
    machine_label: Arc<str>,
    transition_labels: Box<[Arc<str>]>,
    by_name: HashMap<String, TransitionId>,
    transitions: usize,
    initial: StateId,
    next: Box<[u16]>,
    error_protos: Box<[Option<Arc<ErrorEntered>>]>,
    /// Per-transition flag: `true` when a static discharge pass compiled
    /// the transition out (its matrix column is all [`NOT_APPLICABLE`]).
    elided: Box<[bool]>,
}

impl CompiledMachine {
    /// Lowers `spec` into dense tables.
    ///
    /// # Panics
    ///
    /// Panics if the machine declares `u16::MAX` or more states — the
    /// top state id is reserved as the [`NOT_APPLICABLE`] sentinel.
    pub fn compile(spec: MachineSpec) -> CompiledMachine {
        assert!(
            spec.states().len() < usize::from(u16::MAX),
            "machine `{}` has too many states to compile (the top u16 is \
             the not-applicable sentinel)",
            spec.name()
        );
        let states = spec.states().len();
        let transitions = spec.transitions().len();
        let mut next = vec![NOT_APPLICABLE; states * transitions].into_boxed_slice();
        let mut error_protos: Vec<Option<Arc<ErrorEntered>>> = Vec::with_capacity(transitions);
        let mut transition_labels: Vec<Arc<str>> = Vec::with_capacity(transitions);
        let mut by_name = HashMap::with_capacity(transitions);
        for (i, t) in spec.transitions().iter().enumerate() {
            next[t.from().index() * transitions + i] = t.to().0;
            let dest = spec.state(t.to());
            error_protos.push(dest.diagnosis().map(|diag| {
                Arc::new(ErrorEntered {
                    machine: spec.name().to_string(),
                    transition: t.name().to_string(),
                    state: dest.name().to_string(),
                    diagnosis: diag.to_string(),
                })
            }));
            transition_labels.push(Arc::from(t.name()));
            by_name.insert(t.name().to_string(), TransitionId(i as u16));
        }
        CompiledMachine {
            machine_label: Arc::from(spec.name()),
            transition_labels: transition_labels.into_boxed_slice(),
            by_name,
            transitions,
            initial: spec.initial(),
            next,
            error_protos: error_protos.into_boxed_slice(),
            elided: vec![false; transitions].into_boxed_slice(),
            spec,
        }
    }

    /// Lowers `spec` with the given transitions *compiled out*: their
    /// matrix columns are forced to [`NOT_APPLICABLE`], so applying them
    /// is a no-op (`NotApplicable`) from every state and their error
    /// prototypes can never be reached through this machine.
    ///
    /// Soundness is the *caller's* burden: eliding a transition is
    /// outcome-preserving only when a static pass has proved the
    /// workload can never drive it (trigger functions absent) or that
    /// its source state is unreachable (in which case every apply
    /// already returned `NotApplicable`). `jinn-core`'s discharge pass
    /// produces such proofs as a `DischargeReport`; the elided set is
    /// kept queryable here ([`Self::is_elided`]) so elision stays
    /// auditable, never silent.
    ///
    /// # Panics
    ///
    /// Panics if a [`TransitionId`] does not belong to `spec`, or on the
    /// same state-count bound as [`Self::compile`].
    pub fn compile_discharged(spec: MachineSpec, elided: &[TransitionId]) -> CompiledMachine {
        let mut m = Self::compile(spec);
        let states = m.spec.states().len();
        for &t in elided {
            assert!(
                t.index() < m.transitions,
                "transition id {} out of range for machine `{}`",
                t.index(),
                m.spec.name()
            );
            for s in 0..states {
                m.next[s * m.transitions + t.index()] = NOT_APPLICABLE;
            }
            m.elided[t.index()] = true;
        }
        m
    }

    /// Whether a discharge pass compiled this transition out.
    #[inline]
    pub fn is_elided(&self, t: TransitionId) -> bool {
        self.elided[t.index()]
    }

    /// Names of the transitions a discharge pass compiled out, in
    /// transition-id order.
    pub fn elided_transitions(&self) -> Vec<&str> {
        self.elided
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .map(|(i, _)| self.spec.transitions()[i].name())
            .collect()
    }

    /// Number of transitions in the compiled matrix.
    #[inline]
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// The machine's initial state, cached out of the spec so the hot
    /// path never chases the spec pointer.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The spec this machine was lowered from.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        self.spec.name()
    }

    /// The pre-interned machine-name label.
    pub fn machine_label(&self) -> &Arc<str> {
        &self.machine_label
    }

    /// The pre-interned label of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this machine.
    pub fn transition_label(&self, t: TransitionId) -> &Arc<str> {
        &self.transition_labels[t.index()]
    }

    /// Resolves a transition name to its id (one hash probe; the
    /// reference spec scans linearly).
    pub fn transition_id(&self, name: &str) -> Option<TransitionId> {
        self.by_name.get(name).copied()
    }

    /// Where applying `t` in state `from` leads: `Some(destination)` if
    /// the transition's source matches, `None` otherwise. This is the
    /// whole hot path: one multiply-add index and one sentinel compare.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `t` does not belong to this machine (the
    /// matrix read is bounds-checked).
    #[inline]
    pub fn next_state(&self, from: StateId, t: TransitionId) -> Option<StateId> {
        let cell = self.next[from.index() * self.transitions + t.index()];
        (cell != NOT_APPLICABLE).then_some(StateId(cell))
    }

    /// The pre-resolved error record for a transition whose destination
    /// is an error state, `None` for transitions to non-error states.
    #[inline]
    pub fn error_proto(&self, t: TransitionId) -> Option<&Arc<ErrorEntered>> {
        self.error_protos[t.index()].as_ref()
    }
}

/// Keys that may have a *dense index*: a small non-negative integer
/// image suitable for direct `Vec` indexing.
///
/// [`CompiledStore`] keeps entities whose dense index is below
/// [`DENSE_LIMIT`] in its `Vec` of cells and spills the rest to a hash
/// map, so the two methods must round-trip:
/// `from_dense_index(k.dense_index()?)` must reconstruct `k` exactly
/// (the leak sweep uses it to recover keys from cell positions).
pub trait DenseKey: Eq + Hash + Clone + fmt::Debug {
    /// The key's dense index, or `None` if it has no small-integer image
    /// (always-`None` implementations simply route every key to the
    /// hash fallback).
    fn dense_index(&self) -> Option<usize>;

    /// Reconstructs the key from an index previously returned by
    /// [`DenseKey::dense_index`].
    fn from_dense_index(index: usize) -> Option<Self>;
}

macro_rules! impl_dense_key {
    ($($t:ty),*) => {$(
        impl DenseKey for $t {
            #[inline]
            fn dense_index(&self) -> Option<usize> {
                usize::try_from(*self).ok()
            }

            #[inline]
            fn from_dense_index(index: usize) -> Option<Self> {
                <$t>::try_from(index).ok()
            }
        }
    )*};
}
impl_dense_key!(u8, u16, u32, u64, usize);

/// The production entity-state store: a single-threaded engine
/// dispatching through a [`CompiledMachine`].
///
/// Keys below [`DENSE_LIMIT`] index a `Vec` of `u16` state cells (a
/// sentinel value marks an untracked entity), grown on first write up
/// to the largest key written; other keys spill to a `HashMap`.
/// Transition outcomes and sorted sweeps match the reference
/// [`StateStore`](crate::StateStore) outcome-for-outcome, and the store
/// implements [`Engine`], so the equivalence proptests drive both
/// through the same calls. An [`EnginePool`](crate::EnginePool) lease
/// is one fresh store per machine over tables compiled once.
pub struct CompiledStore<K> {
    machine: Arc<CompiledMachine>,
    cells: Vec<u16>,
    spill: HashMap<K, u16>,
    /// Tracked entities (cells and spill).
    len: usize,
    recorder: Recorder,
    machine_label: LabelId,
    transition_labels: Box<[LabelId]>,
}

impl<K> fmt::Debug for CompiledStore<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledStore")
            .field("machine", &self.machine.name())
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<K: DenseKey> CompiledStore<K> {
    /// Compiles `machine` and creates an empty store.
    pub fn new(machine: MachineSpec) -> Self {
        Self::with_compiled(Arc::new(CompiledMachine::compile(machine)))
    }

    /// Creates an empty store over an already compiled machine (lets
    /// several stores share one set of tables — including a discharged
    /// one, see [`CompiledMachine::compile_discharged`]).
    pub fn with_compiled(machine: Arc<CompiledMachine>) -> Self {
        CompiledStore {
            machine,
            cells: Vec::new(),
            spill: HashMap::new(),
            len: 0,
            recorder: Recorder::disabled(),
            machine_label: LabelId(0),
            transition_labels: Box::new([]),
        }
    }

    #[inline]
    fn cell_index(entity: &K) -> Option<usize> {
        entity.dense_index().filter(|&i| i < DENSE_LIMIT)
    }

    /// The entity's raw cell value, [`VACANT`] if untracked.
    #[inline]
    fn cell(&self, entity: &K) -> u16 {
        match Self::cell_index(entity) {
            Some(i) => self.cells.get(i).copied().unwrap_or(VACANT),
            None => self.spill.get(entity).copied().unwrap_or(VACANT),
        }
    }

    fn record(&self, entity: &K, transition: TransitionId, outcome: &TransitionOutcome) {
        if !self.recorder.is_enabled() {
            return;
        }
        let obs_outcome = match outcome {
            TransitionOutcome::Moved { .. } => FsmOutcome::Moved,
            TransitionOutcome::Error(_) => FsmOutcome::Error,
            TransitionOutcome::NotApplicable { .. } => FsmOutcome::NotApplicable,
        };
        let transition_label = self.transition_labels[transition.index()];
        match Self::cell_index(entity) {
            Some(i) => self.recorder.fsm_transition_keyed(
                0,
                self.machine_label,
                transition_label,
                obs_outcome,
                i as u64,
            ),
            None => {
                // Cold path: spilled keys intern their debug rendering
                // per event (the recorder's intern table dedupes).
                let label = self.recorder.intern(&format!("{entity:?}"));
                self.recorder.fsm_transition_id(
                    0,
                    self.machine_label,
                    transition_label,
                    obs_outcome,
                    Some(label),
                );
            }
        }
    }

    /// Tracked entities whose state satisfies `pred`, sorted by key.
    fn sweep(&self, pred: impl Fn(StateId) -> bool) -> Vec<K>
    where
        K: Ord,
    {
        let tracked = |state: &u16| *state != VACANT && pred(StateId(*state));
        let mut out: Vec<K> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, state)| tracked(state))
            .map(|(i, _)| K::from_dense_index(i).expect("cell index came from dense_index"))
            .chain(
                self.spill
                    .iter()
                    .filter(|(_, state)| tracked(state))
                    .map(|(k, _)| k.clone()),
            )
            .collect();
        out.sort_unstable();
        out
    }
}

impl<K: DenseKey> Engine<K> for CompiledStore<K> {
    fn for_machine(machine: MachineSpec) -> Self {
        CompiledStore::new(machine)
    }

    /// Interns the machine and transition names once, so the per-event
    /// path records ids only.
    fn set_recorder(&mut self, recorder: Recorder) {
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

    fn spec(&self) -> &MachineSpec {
        self.machine.spec()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn state_of(&self, entity: &K) -> StateId {
        match self.cell(entity) {
            VACANT => self.machine.initial(),
            s => StateId(s),
        }
    }

    fn contains(&self, entity: &K) -> bool {
        self.cell(entity) != VACANT
    }

    fn apply(&mut self, entity: &K, transition: TransitionId) -> TransitionOutcome {
        assert!(
            transition.index() < self.machine.transition_count(),
            "transition id {} out of range for machine `{}`",
            transition.index(),
            self.machine.name()
        );
        let seen = self.cell(entity);
        let current = if seen == VACANT {
            self.machine.initial()
        } else {
            StateId(seen)
        };
        let outcome = match self.machine.next_state(current, transition) {
            None => TransitionOutcome::NotApplicable { current },
            Some(to) => {
                if seen == VACANT {
                    self.len += 1;
                }
                match Self::cell_index(entity) {
                    Some(i) => {
                        if i >= self.cells.len() {
                            self.cells.resize(i + 1, VACANT);
                        }
                        self.cells[i] = to.0;
                    }
                    None => {
                        self.spill.insert(entity.clone(), to.0);
                    }
                }
                match self.machine.error_proto(transition) {
                    Some(proto) => TransitionOutcome::Error(Arc::clone(proto)),
                    None => TransitionOutcome::Moved { from: current, to },
                }
            }
        };
        self.record(entity, transition, &outcome);
        outcome
    }

    fn apply_named(&mut self, entity: &K, name: &str) -> TransitionOutcome {
        match self.try_apply_named(entity, name) {
            Ok(outcome) => outcome,
            Err(_) => {
                if self.recorder.is_enabled() {
                    // Cold checker-misuse path, mirroring the reference
                    // store exactly.
                    let machine = self.recorder.intern("checker-internal");
                    let transition = self.recorder.intern(name);
                    let label = self.recorder.intern(&format!("{entity:?}"));
                    self.recorder.fsm_transition_id(
                        0,
                        machine,
                        transition,
                        FsmOutcome::NotApplicable,
                        Some(label),
                    );
                }
                TransitionOutcome::NotApplicable {
                    current: self.state_of(entity),
                }
            }
        }
    }

    fn try_apply_named(
        &mut self,
        entity: &K,
        name: &str,
    ) -> Result<TransitionOutcome, UnknownTransition> {
        let id = self
            .machine
            .transition_id(name)
            .ok_or_else(|| UnknownTransition {
                machine: self.machine.name().to_string(),
                name: name.to_string(),
            })?;
        Ok(self.apply(entity, id))
    }

    fn evict(&mut self, entity: &K) -> Option<EntityState> {
        let prev = match Self::cell_index(entity) {
            Some(i) => std::mem::replace(self.cells.get_mut(i)?, VACANT),
            None => self.spill.remove(entity)?,
        };
        if prev == VACANT {
            return None;
        }
        self.len -= 1;
        Some(EntityState::of(StateId(prev)))
    }

    fn entities_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        self.sweep(|s| s == state)
    }

    fn entities_not_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        self.sweep(|s| s != state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ConstraintClass, Direction, EntityKind};
    use crate::runtime::StateStore;

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
    fn matrix_matches_spec() {
        let spec = machine();
        let compiled = CompiledMachine::compile(spec.clone());
        for (si, _) in spec.states().iter().enumerate() {
            let from = StateId(si as u16);
            for (ti, t) in spec.transitions().iter().enumerate() {
                let id = TransitionId(ti as u16);
                let expect = (t.from() == from).then_some(t.to());
                assert_eq!(compiled.next_state(from, id), expect);
            }
        }
    }

    #[test]
    fn error_protos_are_preformatted() {
        let compiled = CompiledMachine::compile(machine());
        let use_after = compiled.transition_id("UseAfterRelease").unwrap();
        let proto = compiled.error_proto(use_after).expect("error transition");
        assert_eq!(proto.machine, "local-ref");
        assert_eq!(proto.state, "Dangling");
        assert!(compiled
            .error_proto(compiled.transition_id("Acquire").unwrap())
            .is_none());
    }

    #[test]
    fn store_lifecycle_matches_reference() {
        let mut store: CompiledStore<u32> = CompiledStore::new(machine());
        let mut reference: StateStore<u32> = StateStore::new(machine());
        for key in [7u32, 9, 7] {
            for name in ["Acquire", "Release", "UseAfterRelease", "Nope"] {
                assert_eq!(
                    store.apply_named(&key, name),
                    reference.apply_named(&key, name),
                    "key {key}, transition {name}"
                );
            }
        }
        assert_eq!(store.len(), reference.len());
        let released = store.spec().state_id("Released").unwrap();
        assert_eq!(
            store.entities_not_in(released),
            reference.entities_not_in(released)
        );
        let err = store.try_apply_named(&7, "Nope").unwrap_err();
        assert_eq!(err, reference.try_apply_named(&7, "Nope").unwrap_err());
        assert_eq!(
            (err.machine.as_str(), err.name.as_str()),
            ("local-ref", "Nope")
        );
    }

    #[test]
    fn spill_keys_work_and_sweep_sorted() {
        let mut store: CompiledStore<u64> = CompiledStore::new(machine());
        let dense = 42u64;
        let sparse = (DENSE_LIMIT as u64) + 99;
        store.apply_named(&dense, "Acquire");
        store.apply_named(&sparse, "Acquire");
        assert_eq!(store.len(), 2);
        assert!(store.contains(&dense));
        assert!(store.contains(&sparse));
        let acquired = store.spec().state_id("Acquired").unwrap();
        assert_eq!(store.entities_in(acquired), vec![dense, sparse]);
        assert!(store.evict(&sparse).is_some());
        assert!(store.evict(&sparse).is_none());
        assert!(store.evict(&(dense + 1)).is_none(), "past the cells");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn not_applicable_first_touch_leaves_entity_untracked() {
        let mut store: CompiledStore<u32> = CompiledStore::new(machine());
        let out = store.apply_named(&7, "Release");
        assert!(!out.applied());
        assert_eq!(store.len(), 0);
        assert!(!store.contains(&7));
    }

    #[test]
    fn discharged_transition_is_not_applicable_everywhere() {
        let use_after = TransitionId(2); // UseAfterRelease
        let compiled = Arc::new(CompiledMachine::compile_discharged(machine(), &[use_after]));
        assert!(compiled.is_elided(use_after));
        assert_eq!(compiled.elided_transitions(), vec!["UseAfterRelease"]);
        let mut store: CompiledStore<u32> = CompiledStore::with_compiled(compiled);
        store.apply_named(&1, "Acquire");
        store.apply_named(&1, "Release");
        let out = store.apply_named(&1, "UseAfterRelease");
        assert!(
            !out.applied(),
            "elided transition must be NotApplicable, got {out:?}"
        );
    }
}
