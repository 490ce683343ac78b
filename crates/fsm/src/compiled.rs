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
//! The lock-free [`AtomicStore`](crate::AtomicStore) dispatches through
//! these tables, keeping small integer keys in a slab (see [`DenseKey`]
//! and [`DENSE_LIMIT`]). The reference [`StateStore`](crate::StateStore)
//! remains the oracle: the equivalence proptest in
//! `tests/engine_equivalence.rs` proves outcome parity between the two
//! on arbitrary machines and event streams.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use crate::machine::{MachineSpec, StateId, TransitionId};
use crate::runtime::ErrorEntered;

/// Sentinel cell value in the next-state matrix: the transition's source
/// state does not match, so applying it is a no-op (`NotApplicable`).
///
/// A machine may therefore declare at most `u16::MAX` states; the
/// builder's `u16` state ids already enforce that bound.
pub const NOT_APPLICABLE: u16 = u16::MAX;

/// Slab cap for [`AtomicStore`](crate::AtomicStore): keys whose
/// [`DenseKey::dense_index`] is below this go to the indexed slab of
/// atomic cells; keys at or above it — or keys with no dense index at
/// all — spill to a hash map. This keeps a store with a few huge keys
/// (e.g. pointer-valued handles) from allocating a multi-gigabyte slab.
pub const DENSE_LIMIT: usize = 1 << 20;

/// Slot value for "entity not tracked" in the lock-free
/// [`AtomicStore`](crate::AtomicStore) cells.
pub(crate) const VACANT: u16 = u16::MAX;

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

    /// The dense `states × transitions` next-state matrix (row-major by
    /// state), copied by the lock-free store at construction.
    #[inline]
    pub(crate) fn matrix(&self) -> &[u16] {
        &self.next
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
/// [`AtomicStore`](crate::AtomicStore) keeps entities whose dense index
/// is below [`DENSE_LIMIT`] in a slab and spills the rest to a hash
/// map, so the two methods must round-trip:
/// `from_dense_index(k.dense_index()?)` must reconstruct `k` exactly
/// (the leak sweep uses it to recover keys from slab slots).
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
}
