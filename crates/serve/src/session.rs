//! Per-session record types: lifecycle states, stats snapshots, and the
//! history rows (verdicts, event summaries, per-config outcomes,
//! machine rollups) the query API serves.

use std::fmt;

use crate::json::{self, JsonObj};

/// A session identifier — client-chosen on `Open`, or daemon-assigned
/// (from [`crate::DaemonHandle::open_auto`]'s high range).
pub type SessionId = u64;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Opened; accepting `Append` frames.
    Open,
    /// Sealed and waiting for an ingest worker.
    Queued,
    /// An ingest worker is replaying it.
    Judging,
    /// Re-judged; history available until retention purges it.
    Judged,
    /// Poisoned by corrupt input; terminal, no history.
    Quarantined,
    /// Abandoned by the client; terminal, no history.
    Aborted,
}

impl SessionState {
    /// Terminal states never change again (and are the only candidates
    /// for retention eviction).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Judged | SessionState::Quarantined | SessionState::Aborted
        )
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionState::Open => "open",
            SessionState::Queued => "queued",
            SessionState::Judging => "judging",
            SessionState::Judged => "judged",
            SessionState::Quarantined => "quarantined",
            SessionState::Aborted => "aborted",
        })
    }
}

/// The recorder-coverage counters of the *recorded* trace, read from its
/// `obs.*` metadata — how much of the original execution the trace
/// actually holds. Surfaced per session so a tenant can see when its
/// recorder ring overflowed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Events evicted by recorder ring overflow (`obs.dropped`).
    pub dropped: u64,
}

impl ObsCounters {
    /// Renders the counters as a JSON object.
    pub fn to_json(self) -> String {
        JsonObj::new().num("dropped", self.dropped).build()
    }
}

/// The static-discharge audit of one judged session: re-running the
/// discharge pass with the trace's own call-site set as the manifest,
/// how many machine transitions could have been compiled out for this
/// exact recording, and which machines were entirely inactive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DischargeStats {
    /// Distinct JNI functions the trace called.
    pub called_functions: u64,
    /// Transitions across all machines.
    pub total_transitions: u64,
    /// Transitions provably untriggerable for this trace.
    pub discharged: u64,
    /// Machines whose every transition was discharged.
    pub inactive_machines: Vec<String>,
}

impl DischargeStats {
    /// Renders the audit as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .num("called_functions", self.called_functions)
            .num("total_transitions", self.total_transitions)
            .num("discharged", self.discharged)
            .raw(
                "inactive_machines",
                json::list(self.inactive_machines.iter().map(|m| json::escape(m))),
            )
            .build()
    }
}

/// A point-in-time snapshot of one session's accounting.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// The session id.
    pub session: SessionId,
    /// The tenant tag from `Open`.
    pub tenant: String,
    /// Lifecycle state at snapshot time.
    pub state: SessionState,
    /// Checker-stack labels the session re-judges under.
    pub configs: Vec<String>,
    /// The traced program's name, once parsed.
    pub program: Option<String>,
    /// Trace bytes received.
    pub bytes: u64,
    /// Frames received (`Open` + `Append`s + `Seal`/`Abort`).
    pub frames: u64,
    /// JNI calls re-issued across all configs.
    pub events_replayed: u64,
    /// Replay divergences across all configs.
    pub divergences: u64,
    /// Verdict rows currently held for the session.
    pub verdicts: u64,
    /// Event-summary rows currently held for the session.
    pub summaries: u64,
    /// Re-judged events that did not fit the per-session summary cap.
    pub summaries_dropped: u64,
    /// Recorder coverage of the *recorded* trace (see [`ObsCounters`]).
    pub obs: ObsCounters,
    /// The static-discharge audit, once judged (see [`DischargeStats`]).
    pub discharge: Option<DischargeStats>,
    /// Whether the trace called a function outside its tenant's
    /// declared manifest (the manifest audit's flag).
    pub outside_manifest: bool,
    /// Why the session was quarantined or aborted, if it was.
    pub reason: Option<String>,
    /// Whether retention purged the session's history rows.
    pub history_purged: bool,
    /// Whether a live executor replayed the session while it uploaded,
    /// rather than a worker judging its retained bytes after `Seal`.
    pub streamed: bool,
    /// Seal-to-verdict latency, once judged: how long the client waited
    /// after `Seal` for its verdict. (Formerly `ingest_micros`.)
    pub seal_to_verdict_micros: Option<u64>,
    /// First-`Append`-to-verdict latency, once judged — the whole-trace
    /// figure live and retained sessions both pay in full, for
    /// like-with-like benchmark comparisons.
    pub first_frame_micros: Option<u64>,
}

impl SessionStats {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .num("session", self.session)
            .str("tenant", &self.tenant)
            .str("state", &self.state.to_string())
            .str("configs", &self.configs.join(","))
            .opt_str("program", self.program.as_deref())
            .num("bytes", self.bytes)
            .num("frames", self.frames)
            .num("events_replayed", self.events_replayed)
            .num("divergences", self.divergences)
            .num("verdicts", self.verdicts)
            .num("summaries", self.summaries)
            .num("summaries_dropped", self.summaries_dropped)
            .raw("obs", self.obs.to_json())
            .raw(
                "discharge",
                self.discharge
                    .as_ref()
                    .map_or_else(|| "null".to_string(), DischargeStats::to_json),
            )
            .bool("outside_manifest", self.outside_manifest)
            .opt_str("reason", self.reason.as_deref())
            .bool("history_purged", self.history_purged)
            .bool("streamed", self.streamed)
            .opt_num("seal_to_verdict_micros", self.seal_to_verdict_micros)
            .opt_num("first_frame_micros", self.first_frame_micros)
            .build()
    }
}

/// One checker violation from one config's re-judging — the primary
/// queryable row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRec {
    /// The session it belongs to.
    pub session: SessionId,
    /// The tenant tag (denormalized for tenant-filtered queries).
    pub tenant: String,
    /// The configuration label that produced it.
    pub config: String,
    /// The violated machine.
    pub machine: String,
    /// The error state entered.
    pub error_state: String,
    /// The JNI function (or native method) at detection.
    pub function: String,
    /// Human-readable diagnosis.
    pub message: String,
}

impl VerdictRec {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .num("session", self.session)
            .str("tenant", &self.tenant)
            .str("config", &self.config)
            .str("machine", &self.machine)
            .str("error_state", &self.error_state)
            .str("function", &self.function)
            .str("message", &self.message)
            .build()
    }
}

/// One re-judged execution event, summarized from the replay recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSummary {
    /// The session it belongs to.
    pub session: SessionId,
    /// The recorder sequence number — the query API's event index.
    pub index: u64,
    /// The thread it happened on ([`jinn_obs::event::NO_THREAD`] for global
    /// events).
    pub thread: u16,
    /// Event family (`jni-enter`, `fsm-transition`, `verdict`…).
    pub label: String,
    /// The JNI function or native method, when the event names one.
    pub function: Option<String>,
    /// The state machine, for transitions and verdicts.
    pub machine: Option<String>,
    /// The entity acted on, for transitions that name one.
    pub entity: Option<String>,
    /// Whether the event represents a failure (failed call, error
    /// transition, verdict).
    pub failed: bool,
}

impl EventSummary {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .num("session", self.session)
            .num("index", self.index)
            .num("thread", self.thread)
            .str("label", &self.label)
            .opt_str("function", self.function.as_deref())
            .opt_str("machine", self.machine.as_deref())
            .opt_str("entity", self.entity.as_deref())
            .bool("failed", self.failed)
            .build()
    }
}

/// One configuration's overall replay outcome for a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeRec {
    /// The session it belongs to.
    pub session: SessionId,
    /// The configuration label.
    pub config: String,
    /// The Table 1 behaviour classification, rendered.
    pub behavior: String,
    /// The primary diagnosis, if any tool produced one.
    pub message: Option<String>,
    /// JNI calls re-issued under this config.
    pub events_replayed: u64,
    /// Replay divergences under this config.
    pub divergences: u64,
}

impl OutcomeRec {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .num("session", self.session)
            .str("config", &self.config)
            .str("behavior", &self.behavior)
            .opt_str("message", self.message.as_deref())
            .num("events_replayed", self.events_replayed)
            .num("divergences", self.divergences)
            .build()
    }
}

/// Final entity-population rollup of one machine after re-applying the
/// session's transition stream through a fresh engine. The stream is
/// the recorder ring's newest `recorder_ring` events, so a session that
/// records more rolls up only its tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineRollup {
    /// The machine name.
    pub machine: String,
    /// Transitions re-applied.
    pub transitions: u64,
    /// Entities tracked at end of stream.
    pub entities: u64,
    /// Error-state entries observed.
    pub errors: u64,
    /// Transition labels the spec machine did not recognise — excluded
    /// from `transitions`.
    pub unknown_transitions: u64,
}

impl MachineRollup {
    /// Renders the rollup as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("machine", &self.machine)
            .num("transitions", self.transitions)
            .num("entities", self.entities)
            .num("errors", self.errors)
            .num("unknown_transitions", self.unknown_transitions)
            .build()
    }
}

/// Approximate heap footprint of a history row, for the retention
/// budget. Deliberately simple and deterministic: struct size plus
/// string payloads.
pub(crate) fn approx_bytes_verdict(v: &VerdictRec) -> usize {
    std::mem::size_of::<VerdictRec>()
        + v.tenant.len()
        + v.config.len()
        + v.machine.len()
        + v.error_state.len()
        + v.function.len()
        + v.message.len()
}

pub(crate) fn approx_bytes_event(e: &EventSummary) -> usize {
    std::mem::size_of::<EventSummary>()
        + e.label.len()
        + e.function.as_deref().map_or(0, str::len)
        + e.machine.as_deref().map_or(0, str::len)
        + e.entity.as_deref().map_or(0, str::len)
}

pub(crate) fn approx_bytes_outcome(o: &OutcomeRec) -> usize {
    std::mem::size_of::<OutcomeRec>()
        + o.config.len()
        + o.behavior.len()
        + o.message.as_deref().map_or(0, str::len)
}

#[cfg(test)]
mod tests {
    use super::DischargeStats;

    // `json::escape` already wraps its result in quotes; this pins the
    // exact bytes so a second quoting layer (invalid JSON) can't sneak
    // back into the stats surface.
    #[test]
    fn discharge_stats_render_as_valid_json() {
        let stats = DischargeStats {
            called_functions: 3,
            total_transitions: 32,
            discharged: 13,
            inactive_machines: vec!["monitor".to_string(), "critical-section".to_string()],
        };
        assert_eq!(
            stats.to_json(),
            "{\"called_functions\":3,\"total_transitions\":32,\"discharged\":13,\
             \"inactive_machines\":[\"monitor\",\"critical-section\"]}"
        );
        assert_eq!(
            DischargeStats::default().to_json(),
            "{\"called_functions\":0,\"total_transitions\":0,\"discharged\":0,\
             \"inactive_machines\":[]}"
        );
    }
}
