//! Generic state-machine specification framework for synthesizing dynamic
//! FFI bug detectors.
//!
//! This crate implements the specification formalism of Section 4 of
//! *Jinn: Synthesizing Dynamic Bug Detectors for Foreign Language
//! Interfaces* (PLDI 2010). A foreign-function-interface constraint is
//! written as a small state machine ([`MachineSpec`]) whose transitions are
//! triggered at *language transitions* — calls and returns that cross the
//! boundary between a managed language and C ([`Direction`]). At runtime a
//! checker attaches machine instances to program *entities* (threads,
//! references, IDs, resources) and transitions them; entering an error state
//! is a detected FFI bug.
//!
//! The crate is deliberately independent of any particular FFI: the JNI and
//! Python/C checkers in the sibling crates both build on it. A machine
//! specification here carries:
//!
//! * named states, some of which are flagged as error states with a
//!   diagnosis template,
//! * named transitions between states,
//! * for each transition, the set of [`TriggerSpec`]s — the
//!   `languageTransitionsFor` mapping of the paper — resolved against a
//!   concrete function registry by the downstream synthesizer.
//!
//! # Example
//!
//! ```
//! use jinn_fsm::{ConstraintClass, Direction, EntityKind, MachineSpec};
//!
//! // The local-reference machine of Figure 2, abridged.
//! let machine = MachineSpec::builder("local-reference", ConstraintClass::Resource)
//!     .entity(EntityKind::Reference)
//!     .state("BeforeAcquire")
//!     .state("Acquired")
//!     .state("Released")
//!     .error_state("Error:Dangling", "use of dangling local reference in {function}")
//!     .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
//!         t.on(Direction::CallJavaToC, "native method taking reference")
//!          .on(Direction::ReturnJavaToC, "JNI function returning reference")
//!     })
//!     .transition("Release", "Acquired", "Released", |t| {
//!         t.on(Direction::ReturnCToJava, "return from any native method")
//!     })
//!     .transition("UseAfterRelease", "Released", "Error:Dangling", |t| {
//!         t.on(Direction::CallCToJava, "JNI function taking reference")
//!     })
//!     .build()
//!     .expect("well-formed machine");
//!
//! assert_eq!(machine.states().len(), 4);
//! assert!(machine.state_by_name("Error:Dangling").unwrap().is_error());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod diagram;
mod engine;
mod machine;
mod pool;
mod runtime;

pub use compiled::{CompiledMachine, CompiledStore, DenseKey, DENSE_LIMIT, NOT_APPLICABLE};
pub use diagram::{ascii_table, dot};
pub use engine::Engine;
pub use machine::{
    ConstraintClass, Direction, EntityKind, MachineBuilder, MachineError, MachineSpec, StateId,
    StateSpec, TransitionBuilder, TransitionId, TransitionSpec, TriggerSpec,
};
pub use pool::{AtomicEnginePool, EnginePool, PoolStats};
pub use runtime::{EntityState, ErrorEntered, StateStore, TransitionOutcome, UnknownTransition};
