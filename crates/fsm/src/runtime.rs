//! Runtime state tracking: attaching machine instances to entities and
//! applying transitions.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use jinn_obs::{FsmOutcome, LabelId, Recorder};

use crate::machine::{MachineSpec, StateId, TransitionId};

/// Current state of one machine instance attached to one entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityState {
    state: StateId,
}

impl EntityState {
    /// An entity sitting in `state` (shared with the compiled engine so
    /// both encodings hand back the same eviction record).
    pub(crate) fn of(state: StateId) -> EntityState {
        EntityState { state }
    }

    /// The current state.
    pub fn state(self) -> StateId {
        self.state
    }
}

/// Result of applying a transition to an entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionOutcome {
    /// The transition applied and the destination is a non-error state.
    Moved {
        /// State before the transition.
        from: StateId,
        /// State after the transition.
        to: StateId,
    },
    /// The transition applied and the destination is an error state: a
    /// bug. The record is behind an `Arc` so the outcome stays two words
    /// and an error hit in the compiled engine is a pointer clone, not
    /// four string allocations.
    Error(Arc<ErrorEntered>),
    /// The transition's source state did not match the entity's current
    /// state; nothing changed. (Transition checks in the paper's wrappers
    /// are conditional: `if e satisfies the transition check …`.)
    NotApplicable {
        /// The entity's current state, which differs from the transition's
        /// source.
        current: StateId,
    },
}

impl TransitionOutcome {
    /// Returns the error record if the outcome entered an error state.
    pub fn error(&self) -> Option<&ErrorEntered> {
        match self {
            TransitionOutcome::Error(e) => Some(e.as_ref()),
            _ => None,
        }
    }

    /// Returns `true` if the transition actually moved the entity.
    pub fn applied(&self) -> bool {
        !matches!(self, TransitionOutcome::NotApplicable { .. })
    }
}

/// Record of an entity entering an error state: a detected FFI bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorEntered {
    /// Machine name.
    pub machine: String,
    /// Transition that moved the entity into the error state.
    pub transition: String,
    /// The error state's name.
    pub state: String,
    /// The diagnosis template from the state spec.
    pub diagnosis: String,
}

impl fmt::Display for ErrorEntered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: entered `{}` via `{}`: {}",
            self.machine, self.state, self.transition, self.diagnosis
        )
    }
}

/// Checker misuse: a transition name that does not exist in the store's
/// machine. Returned by [`StateStore::try_apply_named`] so the caller
/// can convert the misuse into a `checker-internal` report instead of
/// crashing the checked process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTransition {
    /// The machine that was asked.
    pub machine: String,
    /// The unknown transition name.
    pub name: String,
}

impl fmt::Display for UnknownTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no transition `{}` in machine `{}`",
            self.name, self.machine
        )
    }
}

impl std::error::Error for UnknownTransition {}

/// A store mapping entities (of key type `K`) to their machine state.
///
/// This is the "state machine encoding" of the paper, in its most generic
/// form: a map from entity to current state. Concrete checkers use richer
/// encodings (frame stacks, tallies) built from the same machine specs;
/// `StateStore` is the reference encoding used by tests, the generic
/// runtime, and the Python/C checker.
#[derive(Debug, Clone)]
pub struct StateStore<K> {
    machine: MachineSpec,
    states: HashMap<K, EntityState>,
    recorder: Recorder,
    /// Interned machine/transition label ids, built when the recorder is
    /// attached, so an enabled recorder records a `u32` per event instead
    /// of allocating or cloning a label.
    machine_label: LabelId,
    transition_labels: Box<[LabelId]>,
    /// Per-entity label ids, interned on each entity's first recorded
    /// event.
    entity_labels: HashMap<K, LabelId>,
}

impl<K: Eq + Hash + Clone + fmt::Debug> StateStore<K> {
    /// Creates an empty store for instances of `machine`.
    pub fn new(machine: MachineSpec) -> Self {
        StateStore {
            machine_label: LabelId(0),
            transition_labels: Box::new([]),
            entity_labels: HashMap::new(),
            machine,
            states: HashMap::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: every [`StateStore::apply`]
    /// from then on emits an `FsmTransition` trace event (including
    /// `NotApplicable` non-matches) and feeds the per-machine metrics.
    /// Machine and transition names are interned here, once, so the
    /// per-event path carries only dense ids.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.machine_label = recorder.intern(self.machine.name());
        self.transition_labels = self
            .machine
            .transitions()
            .iter()
            .map(|t| recorder.intern(t.name()))
            .collect();
        self.entity_labels.clear();
        self.recorder = recorder;
    }

    /// The interned label for `entity`, computed on first recorded use
    /// (the label text is the entity's `Debug` rendering, matching
    /// [`EntityTag::of_debug`](jinn_obs::EntityTag::of_debug)).
    fn entity_label(&mut self, entity: &K) -> LabelId {
        if let Some(&label) = self.entity_labels.get(entity) {
            return label;
        }
        let label = self.recorder.intern(&format!("{entity:?}"));
        self.entity_labels.insert(entity.clone(), label);
        label
    }

    /// The machine this store tracks.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Number of tracked entities.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if no entities are tracked.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current state of `entity`, or the initial state if never seen.
    pub fn state_of(&self, entity: &K) -> StateId {
        self.states
            .get(entity)
            .map(|e| e.state)
            .unwrap_or_else(|| self.machine.initial())
    }

    /// Returns `true` if the entity has been attached (transitioned at
    /// least once).
    pub fn contains(&self, entity: &K) -> bool {
        self.states.contains_key(entity)
    }

    /// Applies the named transition to `entity` if its current state
    /// matches the transition's source; returns what happened.
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to the store's machine.
    pub fn apply(&mut self, entity: &K, transition: TransitionId) -> TransitionOutcome {
        let t = self.machine.transition(transition);
        // One probe on the steady-state path: an already-tracked entity
        // is read and updated through the same `get_mut` slot, and the
        // key is only cloned (and re-probed for insertion) on first
        // touch.
        let slot = self.states.get_mut(entity);
        let current = slot
            .as_ref()
            .map(|e| e.state)
            .unwrap_or_else(|| self.machine.initial());
        let outcome = if current != t.from() {
            TransitionOutcome::NotApplicable { current }
        } else {
            let to = t.to();
            match slot {
                Some(e) => e.state = to,
                None => {
                    self.states
                        .insert(entity.clone(), EntityState { state: to });
                }
            }
            let dest = self.machine.state(to);
            if let Some(diag) = dest.diagnosis() {
                TransitionOutcome::Error(Arc::new(ErrorEntered {
                    machine: self.machine.name().to_string(),
                    transition: t.name().to_string(),
                    state: dest.name().to_string(),
                    diagnosis: diag.to_string(),
                }))
            } else {
                TransitionOutcome::Moved { from: current, to }
            }
        };
        if self.recorder.is_enabled() {
            let obs_outcome = match &outcome {
                TransitionOutcome::Moved { .. } => FsmOutcome::Moved,
                TransitionOutcome::Error(_) => FsmOutcome::Error,
                TransitionOutcome::NotApplicable { .. } => FsmOutcome::NotApplicable,
            };
            let entity_label = self.entity_label(entity);
            self.recorder.fsm_transition_id(
                jinn_obs::event::NO_THREAD,
                self.machine_label,
                self.transition_labels[transition.index()],
                obs_outcome,
                Some(entity_label),
            );
        }
        outcome
    }

    /// Applies the transition named `name`; see [`StateStore::apply`].
    ///
    /// An unknown transition name is checker misuse, not a program bug:
    /// it resolves to [`TransitionOutcome::NotApplicable`] (the entity is
    /// untouched) and is recorded as a `checker-internal` transition so
    /// the misuse is visible in traces instead of crashing the process.
    /// Callers that want to surface the misuse as a report should use
    /// [`StateStore::try_apply_named`] and route the error through the
    /// interposition layer's `guard_hook`/checker-internal seam.
    pub fn apply_named(&mut self, entity: &K, name: &str) -> TransitionOutcome {
        match self.try_apply_named(entity, name) {
            Ok(outcome) => outcome,
            Err(_) => {
                if self.recorder.is_enabled() {
                    // Cold checker-misuse path: interning per miss is
                    // fine (repeat misses hit the intern cache).
                    let machine = self.recorder.intern("checker-internal");
                    let transition = self.recorder.intern(name);
                    let entity_label = self.entity_label(entity);
                    self.recorder.fsm_transition_id(
                        jinn_obs::event::NO_THREAD,
                        machine,
                        transition,
                        FsmOutcome::NotApplicable,
                        Some(entity_label),
                    );
                }
                TransitionOutcome::NotApplicable {
                    current: self.state_of(entity),
                }
            }
        }
    }

    /// Applies the transition named `name`, reporting an unknown name as
    /// an [`UnknownTransition`] error instead of panicking or silently
    /// ignoring it.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTransition`] when the machine has no transition
    /// of that name; the entity's state is untouched.
    pub fn try_apply_named(
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

    /// Removes an entity from the store (e.g. after its resource dies).
    pub fn evict(&mut self, entity: &K) -> Option<EntityState> {
        self.states.remove(entity)
    }

    /// Entities currently in the given state, sorted by entity key.
    ///
    /// The underlying map iterates in randomized order per process run;
    /// sorting keeps leak-sweep report order (and therefore verdict
    /// sequences) stable across runs.
    pub fn entities_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        let mut out: Vec<K> = self
            .states
            .iter()
            .filter(|(_, v)| v.state == state)
            .map(|(k, _)| k.clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// Entities whose current state is *not* the given state, sorted by
    /// entity key; used for program-termination leak sweeps ("Jinn
    /// reports a leak for any resource that has not been released at
    /// program termination"). Sorted for run-to-run determinism.
    pub fn entities_not_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        let mut out: Vec<K> = self
            .states
            .iter()
            .filter(|(_, v)| v.state != state)
            .map(|(k, _)| k.clone())
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ConstraintClass, Direction, EntityKind};

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
    fn lifecycle_detects_dangling_use() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        let r = 7;
        assert_eq!(store.state_of(&r), StateId(0));
        assert!(store.apply_named(&r, "Acquire").applied());
        assert!(store.apply_named(&r, "Release").applied());
        let out = store.apply_named(&r, "UseAfterRelease");
        let err = out.error().expect("should be an error");
        assert_eq!(err.machine, "local-ref");
        assert_eq!(err.state, "Dangling");
        assert!(err.diagnosis.contains("dangling"));
    }

    #[test]
    fn not_applicable_leaves_state_unchanged() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        let r = 1;
        // Release before Acquire: source state doesn't match.
        let out = store.apply_named(&r, "Release");
        assert!(!out.applied());
        assert_eq!(store.state_of(&r), StateId(0));
    }

    #[test]
    fn use_in_acquired_state_is_fine() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        let r = 1;
        store.apply_named(&r, "Acquire");
        // A "use" trigger in Acquired doesn't match UseAfterRelease's source.
        let out = store.apply_named(&r, "UseAfterRelease");
        assert!(!out.applied());
        assert_eq!(store.state_of(&r), StateId(1));
    }

    #[test]
    fn leak_sweep_finds_unreleased() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        store.apply_named(&1, "Acquire");
        store.apply_named(&2, "Acquire");
        store.apply_named(&2, "Release");
        let released = store.machine().state_id("Released").unwrap();
        let leaked = store.entities_not_in(released);
        assert_eq!(leaked, vec![1]);
    }

    #[test]
    fn unknown_transition_is_reported_not_a_panic() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        store.apply_named(&1, "Acquire");
        let err = store.try_apply_named(&1, "NoSuchTransition").unwrap_err();
        assert_eq!(err.machine, "local-ref");
        assert_eq!(err.name, "NoSuchTransition");
        assert!(err.to_string().contains("NoSuchTransition"));
        // The infallible entry point degrades to NotApplicable.
        let out = store.apply_named(&1, "NoSuchTransition");
        assert!(!out.applied());
        assert_eq!(store.state_of(&1), StateId(1), "state untouched");
    }

    #[test]
    fn leak_sweep_order_is_sorted() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        // Insert in shuffled order; the sweep must come back sorted no
        // matter the map's iteration order.
        for k in [9u32, 3, 7, 1, 5] {
            store.apply_named(&k, "Acquire");
        }
        let released = store.machine().state_id("Released").unwrap();
        assert_eq!(store.entities_not_in(released), vec![1, 3, 5, 7, 9]);
        let acquired = store.machine().state_id("Acquired").unwrap();
        assert_eq!(store.entities_in(acquired), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn evict_untracks_the_entity() {
        let mut store: StateStore<u32> = StateStore::new(machine());
        store.apply_named(&1, "Acquire");
        assert!(store.contains(&1));
        assert!(store.evict(&1).is_some());
        assert!(!store.contains(&1));
        assert!(store.is_empty());
    }
}
