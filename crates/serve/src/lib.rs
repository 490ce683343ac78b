//! # jinn-serve
//!
//! A multi-tenant trace-ingestion and re-judging daemon with a verdict
//! query API: the service shape of the Jinn pipeline.
//!
//! The paper's detectors are synthesized once but meant to run
//! everywhere (§6–7). The sibling crates already record at 1.04×
//! overhead and replay at millions of events per second — but only one
//! session in one process. This crate turns the checker library into a
//! fleet service:
//!
//! * **Session lifecycle** — clients `Open`/`Append`/`Seal` `.jtrace`
//!   byte streams over the length-prefixed frame envelope
//!   (`jinn_replay::stream`), each session carrying a tenant tag and a
//!   checker-stack selection.
//! * **Ingest pipeline** — every session owns a resumable record
//!   decoder ([`jinn_replay::StreamDecoder`]) from `Open`; each `Append`
//!   feeds it, and `Seal` checks the declared length/checksum against
//!   its running totals. [`Daemon`] runs N worker threads over a bounded
//!   queue of sealed sessions. A single-config session opened while a
//!   `streaming_sessions` slot is free is *live*: its decoder drains as
//!   bytes arrive (only the undecoded tail stays resident) into a replay
//!   feed. While the upload is still arriving, an executor thread
//!   replays the feed, so the worker joins an already-computed result;
//!   a trace that arrives whole in one `Append` spawns no thread, and
//!   the worker replays its finished feed inline. Every other session
//!   is *retained*: its bytes stay in the decoder until a worker drains
//!   it into a trace and replays it under each config
//!   ([`judge_trace`]). Compiled check tables are cloned from a
//!   process-wide synthesis cache, and per-machine entity rollups run on
//!   fresh single-threaded engines leased at judging from one machine
//!   set compiled at start ([`jinn_fsm::EnginePool`]). Corrupt input —
//!   frame checksum mismatch, seal mismatch, unreadable trace, a JNI
//!   function or thread id that does not exist — quarantines the one
//!   poisoned session and never stalls the fleet. So does a panic in
//!   replay or judging: it is contained, quarantines its session as
//!   `replay under … panicked` and counts in
//!   [`FleetStats::contained_panics`]. A live verdict is
//!   never observable before seal verification passes (`streaming`
//!   module docs, DESIGN.md §13 and §16).
//! * **Verdict/history store with retention** — per-session verdicts,
//!   per-config outcomes, and execution-event summaries under a global
//!   byte budget with deterministic oldest-session-first purge
//!   ([`store`] module docs).
//! * **Manifest audit** — a tenant can declare its call-site manifest
//!   (the `Manifest` frame / [`DaemonHandle::declare_manifest`]) and is
//!   acked with the static-discharge summary for it. The manifest
//!   changes no verdict and no rollup: a session whose trace calls
//!   outside its tenant's declared set is only flagged
//!   ([`SessionStats`] `outside_manifest`; module docs at
//!   [`ManifestSummary`]).
//! * **Query API** — [`DaemonHandle::query`] filters by session,
//!   tenant, config, function, machine, entity, thread, and event-index
//!   range, with cursor pagination; [`SocketServer`] exposes the same
//!   over line-delimited JSON, and the `serve` bin in `jinn-bench` is
//!   the CLI front end.
//!
//! ```
//! use jinn_replay::{encode_ingest, program_by_name, record_program};
//! use jinn_serve::{Daemon, Query, ServeConfig};
//!
//! let daemon = Daemon::start(ServeConfig::default());
//! let handle = daemon.handle();
//!
//! // One client session: frame up a recorded trace and apply it.
//! let trace = record_program(&program_by_name("LocalRefDangling").unwrap());
//! for frame in jinn_replay::decode_stream(&encode_ingest(7, "acme", "jinn", &trace, 4096))
//!     .unwrap()
//! {
//!     handle.apply_frame(&frame).unwrap();
//! }
//! let stats = handle.wait_session(7).unwrap();
//! assert_eq!(stats.state.to_string(), "judged");
//!
//! // Query its verdicts.
//! let page = handle.query(&Query {
//!     session: Some(7),
//!     machine: Some("local-reference".to_string()),
//!     ..Query::default()
//! });
//! assert!(!page.items.is_empty());
//! daemon.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod error;
pub mod json;
mod judge;
mod manifest;
mod session;
mod socket;
pub mod store;
mod streaming;

pub use daemon::{Daemon, DaemonHandle, ServeConfig, AUTO_SESSION_BASE};
pub use error::ServeError;
pub use judge::{judge_trace, obs_counters, rollup_events, JudgeOutput};
pub use manifest::ManifestSummary;
pub use session::{
    DischargeStats, EventSummary, MachineRollup, ObsCounters, OutcomeRec, SessionId, SessionState,
    SessionStats, VerdictRec,
};
pub use socket::SocketServer;
pub use store::{FleetStats, Query, QueryItem, QueryKind, QueryPage, SessionTable, StoreLimits};
