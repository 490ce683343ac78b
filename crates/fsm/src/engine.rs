//! The [`Engine`] abstraction: one interface over the reference
//! [`StateStore`] and the production
//! [`CompiledStore`](crate::CompiledStore), so the equivalence and
//! determinism proptests drive either store through the same calls.
//! Both are single-threaded: every mutation takes `&mut self`.

use std::fmt;
use std::hash::Hash;

use jinn_obs::Recorder;

use crate::machine::{MachineSpec, StateId, TransitionId};
use crate::runtime::{EntityState, StateStore, TransitionOutcome, UnknownTransition};

/// A dispatch engine: an entity-state map plus transition application
/// for one machine. Implementations must agree outcome-for-outcome —
/// the equivalence proptests in `tests/engine_equivalence.rs` enforce it.
pub trait Engine<K> {
    /// Creates an empty engine tracking instances of `machine`.
    fn for_machine(machine: MachineSpec) -> Self
    where
        Self: Sized;

    /// Attaches an observability recorder.
    fn set_recorder(&mut self, recorder: Recorder);

    /// The machine spec this engine tracks.
    fn spec(&self) -> &MachineSpec;

    /// Number of tracked entities.
    fn len(&self) -> usize;

    /// Returns `true` if no entities are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current state of `entity`, or the initial state if never seen.
    fn state_of(&self, entity: &K) -> StateId;

    /// Returns `true` if the entity has been attached.
    fn contains(&self, entity: &K) -> bool;

    /// Applies a transition by id; see
    /// [`StateStore::apply`](crate::StateStore::apply).
    fn apply(&mut self, entity: &K, transition: TransitionId) -> TransitionOutcome;

    /// Applies a transition by name, degrading unknown names to
    /// `NotApplicable`.
    fn apply_named(&mut self, entity: &K, name: &str) -> TransitionOutcome;

    /// Applies a transition by name, reporting unknown names.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTransition`] when the machine has no transition
    /// of that name.
    fn try_apply_named(
        &mut self,
        entity: &K,
        name: &str,
    ) -> Result<TransitionOutcome, UnknownTransition>;

    /// Removes an entity from the engine.
    fn evict(&mut self, entity: &K) -> Option<EntityState>;

    /// Entities currently in `state`, sorted by key.
    fn entities_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord;

    /// Entities *not* in `state`, sorted by key (the leak sweep).
    fn entities_not_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord;
}

impl<K: Eq + Hash + Clone + fmt::Debug> Engine<K> for StateStore<K> {
    fn for_machine(machine: MachineSpec) -> Self {
        StateStore::new(machine)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        StateStore::set_recorder(self, recorder);
    }

    fn spec(&self) -> &MachineSpec {
        self.machine()
    }

    fn len(&self) -> usize {
        StateStore::len(self)
    }

    fn state_of(&self, entity: &K) -> StateId {
        StateStore::state_of(self, entity)
    }

    fn contains(&self, entity: &K) -> bool {
        StateStore::contains(self, entity)
    }

    fn apply(&mut self, entity: &K, transition: TransitionId) -> TransitionOutcome {
        StateStore::apply(self, entity, transition)
    }

    fn apply_named(&mut self, entity: &K, name: &str) -> TransitionOutcome {
        StateStore::apply_named(self, entity, name)
    }

    fn try_apply_named(
        &mut self,
        entity: &K,
        name: &str,
    ) -> Result<TransitionOutcome, UnknownTransition> {
        StateStore::try_apply_named(self, entity, name)
    }

    fn evict(&mut self, entity: &K) -> Option<EntityState> {
        StateStore::evict(self, entity)
    }

    fn entities_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        StateStore::entities_in(self, state)
    }

    fn entities_not_in(&self, state: StateId) -> Vec<K>
    where
        K: Ord,
    {
        StateStore::entities_not_in(self, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledStore;
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

    /// Drives the same generic script over any engine.
    fn drive<E: Engine<u64>>() -> (Vec<TransitionOutcome>, Vec<u64>) {
        let mut engine = E::for_machine(machine());
        let mut outcomes = Vec::new();
        for key in [1u64, 2, 3, 1, 2] {
            outcomes.push(engine.apply_named(&key, "Acquire"));
            if key % 2 == 0 {
                outcomes.push(engine.apply_named(&key, "Release"));
                outcomes.push(engine.apply_named(&key, "UseAfterRelease"));
            }
        }
        engine.evict(&3);
        let released = engine.spec().state_id("Released").unwrap();
        (outcomes, engine.entities_not_in(released))
    }

    #[test]
    fn both_engines_agree_on_a_scripted_run() {
        let reference = drive::<StateStore<u64>>();
        let compiled = drive::<CompiledStore<u64>>();
        assert_eq!(reference, compiled);
    }
}
