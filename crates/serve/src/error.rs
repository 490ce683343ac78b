//! Typed daemon errors: everything a client can get wrong, with enough
//! structure for the socket front end to render and for tests to match.

use std::fmt;

use crate::session::SessionId;

/// Why a daemon call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The session id has never been opened (or its record was deleted).
    UnknownSession(SessionId),
    /// `Open` for a session id that already exists.
    DuplicateSession(SessionId),
    /// `Append`/`Seal` on a session that is not in the `Open` state.
    SessionNotOpen {
        /// The addressed session.
        session: SessionId,
        /// Its actual state, rendered.
        state: String,
    },
    /// Per-session backpressure: the append would take the bytes the
    /// session has uploaded past the per-session cap. The client should
    /// seal what it has sent.
    Backpressure {
        /// The addressed session.
        session: SessionId,
        /// Bytes the session has already uploaded.
        buffered: u64,
        /// The per-session cap.
        cap: u64,
    },
    /// The session was quarantined (corrupt frames or an unreadable
    /// trace) and accepts no further operations.
    Quarantined {
        /// The addressed session.
        session: SessionId,
        /// Why it was poisoned.
        reason: String,
    },
    /// Global admission control: the fleet is at its live-session cap
    /// and admits no new `Open` until a session goes terminal.
    FleetSaturated {
        /// Live (open/queued/judging) sessions right now.
        live: u64,
        /// The configured cap.
        cap: u64,
    },
    /// Global backpressure: total un-judged ingest bytes buffered across
    /// all sessions are at the fleet cap. The client should wait for
    /// sealed sessions to drain.
    FleetBackpressure {
        /// Bytes currently buffered fleet-wide.
        buffered: u64,
        /// The fleet-wide cap.
        cap: u64,
    },
    /// The checker-stack selection string did not parse.
    BadConfig(String),
    /// A manifest declaration named more functions than the wire cap
    /// admits ([`jinn_replay::MAX_MANIFEST_FUNCTIONS`]).
    ManifestTooLarge {
        /// Functions in the declaration.
        count: u64,
        /// The cap.
        cap: u64,
    },
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(s) => write!(f, "unknown session {s}"),
            ServeError::DuplicateSession(s) => write!(f, "session {s} already open"),
            ServeError::SessionNotOpen { session, state } => {
                write!(f, "session {session} is {state}, not open")
            }
            ServeError::Backpressure {
                session,
                buffered,
                cap,
            } => write!(
                f,
                "session {session} backpressure: {buffered} bytes uploaded, cap {cap}"
            ),
            ServeError::Quarantined { session, reason } => {
                write!(f, "session {session} quarantined: {reason}")
            }
            ServeError::FleetSaturated { live, cap } => {
                write!(f, "fleet saturated: {live} live sessions, cap {cap}")
            }
            ServeError::FleetBackpressure { buffered, cap } => write!(
                f,
                "fleet backpressure: {buffered} ingest bytes buffered, cap {cap}"
            ),
            ServeError::BadConfig(c) => write!(f, "unknown checker config `{c}`"),
            ServeError::ManifestTooLarge { count, cap } => {
                write!(f, "manifest of {count} functions exceeds cap {cap}")
            }
            ServeError::ShuttingDown => f.write_str("daemon is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}
