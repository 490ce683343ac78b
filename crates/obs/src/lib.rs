//! `jinn-obs` — the observability layer of the Jinn reproduction.
//!
//! Jinn's value is *diagnosis at the moment of the bug*: the checkers in
//! `jinn-core` name the violated machine the instant an entity enters an
//! error state. This crate supplies the surrounding context that a
//! production deployment needs on top of the verdict:
//!
//! * [`recorder`] — one ring per recorder of fixed-width binary
//!   [`raw::RawEvent`] records, one per language transition (the
//!   paper's Figure 2 arrows), FSM transition, GC event, pin event, and
//!   checker verdict — one uncontended lock and no string work per
//!   event, cheap enough to leave on in production;
//! * [`metrics`] — monotonic counters and log₂-bucketed latency
//!   histograms keyed per JNI function and per state machine, with a
//!   cheap [`Snapshot`];
//! * [`forensics`] — "what led up to this?" reports: the last-N events
//!   for a failing entity/thread, rendered as structured data (the
//!   paper's Figure 9 debugger experience);
//! * [`export`] — Chrome `chrome://tracing` JSON and plain-text dumps.
//!
//! The entry point is [`Recorder`]: a cheaply clonable handle that every
//! substrate crate (the JNI driver, the FSM runtime, the mini-JVM heap)
//! carries. A disabled recorder is a single `Option` check per event —
//! the Table 3 overhead numbers stay honest.
//!
//! This crate deliberately has **no dependencies**, in-workspace or
//! external, so every layer of the stack can call into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod forensics;
pub mod metrics;
pub mod raw;
pub mod recorder;

pub use event::{EntityTag, EventKind, FsmOutcome, TraceEvent, VerdictAction};
pub use forensics::{BugReport, ForensicsConfig};
pub use metrics::{Coverage, Histogram, MetricsRegistry, Snapshot};
pub use raw::{LabelId, RawEvent};
pub use recorder::{Recorder, DEFAULT_RING_CAPACITY};
