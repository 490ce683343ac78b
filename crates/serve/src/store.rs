//! The session table: lifecycle bookkeeping, the ingest-byte charges,
//! judged history rows, the retention budget, and the ordered indexes
//! that pick victims and answer queries.
//!
//! The table never holds trace bytes: each session's own stream decoder
//! does (the daemon's `streaming` module). The table charges the bytes
//! a decoder holds against the per-session and fleet budgets
//! ([`SessionTable::admit`], [`SessionTable::settle`]) and applies a
//! seal verdict computed from the decoder's running totals
//! ([`SessionTable::seal`]).
//!
//! One mutex guards the whole table, indexes included. That still
//! suffices because nothing done under it scans the table or a trace: a
//! purge or eviction victim costs O(log n), a query costs O(page + log
//! n) when filtered by tenant or session and otherwise a scan of
//! retained history that stops at the page. The expensive work (decode,
//! replay) happens in workers *outside* the lock — a worker marks the
//! session judging, judges and compacts the rows without the lock, and
//! comes back once with the results. A condvar broadcast on every state
//! change backs `wait_terminal`/`wait_idle`.
//!
//! ## Indexes
//!
//! Beside the id map, the table keeps ordered indexes:
//!
//! - terminal sessions by `(opened_seq, id)`, whose first entry is the
//!   next record to evict;
//! - sessions holding history by `(opened_seq, id)`, whose first entry
//!   is the next history to purge;
//! - histories holding at least one row by first rowid, fleet-wide and
//!   per tenant, shared with their records so a walk never looks a
//!   session up. A session's rowids are assigned contiguously under the
//!   lock when it is judged, so walking an index in order visits rows
//!   in rowid order: a query starts at the history holding
//!   `cursor + 1` and stops once one row past its page has matched. A
//!   history with no rows is in neither index.
//!
//! ## Compact history
//!
//! A judged session's rows are held as one text buffer plus fixed-size
//! slots holding numbers and `(offset, len)` spans into that text, each
//! distinct string stored once. Filters compare `&str` slices of the
//! text; the public row types are built only for the rows a page
//! returns. Records share one interned copy of each distinct
//! inactive-machine set.
//!
//! ## Retention
//!
//! Judged history (verdict rows, event summaries, per-config outcomes)
//! is held under a global byte budget, charged at the approximate size
//! of the rows as the judge produced them (not of their compact form).
//! When an insert pushes the total
//! over, whole-session histories are purged **oldest-session-first** by
//! open order until back under. Only terminal sessions are candidates:
//! a live (open/queued/judging) session has no history yet and can
//! never be evicted, structurally. Purged sessions keep their stats —
//! the query API reports `history_purged` rather than silently
//! returning nothing.
//!
//! ## Admission control
//!
//! Every other resource the table holds is bounded too
//! ([`StoreLimits`]): `open` past the live-session cap, and `admit`
//! past a session's upload cap or the fleet-wide buffered-bytes cap,
//! fail with typed errors, and
//! whole session *records* beyond the record cap are evicted
//! oldest-first among terminal sessions whenever one goes terminal —
//! an evicted id stops answering stats and may be reopened. Live
//! sessions are never evicted; the live-session cap bounds how many
//! can exist.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use jinn_replay::ReplayConfig;

use crate::error::ServeError;
use crate::judge::JudgeOutput;
use crate::session::{
    approx_bytes_event, approx_bytes_outcome, approx_bytes_verdict, DischargeStats, EventSummary,
    MachineRollup, ObsCounters, OutcomeRec, SessionId, SessionState, SessionStats, VerdictRec,
};

/// Hard bounds on what a [`SessionTable`] may hold. Everything a remote
/// client can grow is capped: live sessions, buffered ingest bytes
/// (per session and fleet-wide), judged-history bytes, and the session
/// records themselves.
#[derive(Debug, Clone, Copy)]
pub struct StoreLimits {
    /// Global byte budget for judged history (see the module docs).
    pub retention_bytes: usize,
    /// Per-session upload cap: an `Append` that would take the bytes a
    /// session has uploaded past it fails with
    /// [`ServeError::Backpressure`], live or retained.
    pub max_buffered: u64,
    /// Live (open/queued/judging) sessions admitted at once
    /// ([`ServeError::FleetSaturated`] past it).
    pub max_live_sessions: usize,
    /// Session records kept, live and terminal together; terminal
    /// records beyond it are evicted oldest-first.
    pub max_session_records: usize,
    /// Total un-judged ingest bytes buffered across all sessions
    /// ([`ServeError::FleetBackpressure`] past it).
    pub max_total_buffered: u64,
}

/// Which history rows a query scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryKind {
    /// Checker violations (the default).
    #[default]
    Verdicts,
    /// Re-judged execution event summaries.
    Events,
    /// Per-config overall outcomes.
    Outcomes,
}

/// A history query: filters are conjunctive; absent filters match
/// everything. Results are ordered by insertion (rowid) and paginated
/// with an opaque cursor.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Row family to scan.
    pub kind: QueryKind,
    /// Only rows of this session.
    pub session: Option<SessionId>,
    /// Only rows of sessions with this tenant tag.
    pub tenant: Option<String>,
    /// Only rows produced under this config label.
    pub config: Option<String>,
    /// Only rows naming this JNI function / native method.
    pub function: Option<String>,
    /// Only rows naming this state machine.
    pub machine: Option<String>,
    /// Only event rows naming this entity.
    pub entity: Option<String>,
    /// Only event rows on this thread.
    pub thread: Option<u16>,
    /// Only event rows with index ≥ this.
    pub min_index: Option<u64>,
    /// Only event rows with index ≤ this.
    pub max_index: Option<u64>,
    /// Resume after this rowid (from a previous page's `next_cursor`).
    pub cursor: Option<u64>,
    /// Page size; 0 means the default (100), capped at 1000.
    pub limit: usize,
}

/// One matched row.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryItem {
    /// A verdict row.
    Verdict(VerdictRec),
    /// An event-summary row.
    Event(EventSummary),
    /// A per-config outcome row.
    Outcome(OutcomeRec),
}

impl QueryItem {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        match self {
            QueryItem::Verdict(v) => v.to_json(),
            QueryItem::Event(e) => e.to_json(),
            QueryItem::Outcome(o) => o.to_json(),
        }
    }
}

/// One page of query results.
#[derive(Debug, Clone, Default)]
pub struct QueryPage {
    /// Matched rows, insertion order.
    pub items: Vec<QueryItem>,
    /// Pass back as [`Query::cursor`] for the next page; `None` when the
    /// scan is exhausted.
    pub next_cursor: Option<u64>,
}

/// Fleet-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions judged.
    pub judged: u64,
    /// Sessions quarantined.
    pub quarantined: u64,
    /// Sessions aborted by their client.
    pub aborted: u64,
    /// Sessions currently open/queued/judging.
    pub live: u64,
    /// History bytes currently held.
    pub history_bytes: u64,
    /// The retention budget.
    pub retention_bytes: u64,
    /// Sessions whose history retention purged.
    pub purged_sessions: u64,
    /// Terminal session records evicted by the record cap.
    pub evicted_sessions: u64,
    /// Verdict rows ever stored.
    pub total_verdicts: u64,
    /// JNI calls re-issued across all judged sessions.
    pub total_events_replayed: u64,
    /// Judged sessions whose trace called outside their tenant's
    /// declared manifest.
    pub outside_manifest_sessions: u64,
    /// Judged sessions that a live executor replayed while they
    /// uploaded.
    pub streamed_sessions: u64,
    /// Most un-judged ingest bytes simultaneously buffered across the
    /// fleet over the daemon's lifetime. A live session charges only
    /// its undecoded tail here, a retained one every byte it uploaded,
    /// so this is the figure the streaming bench's peak-resident-bytes
    /// comparison reads.
    pub buffered_bytes_high_water: u64,
    /// Panics in replay or judging that the daemon contained: each
    /// quarantined its session as `replay under … panicked`, and the
    /// worker lived on. The daemon counts these, not the table:
    /// [`SessionTable::fleet`] leaves it `0`.
    pub contained_panics: u64,
}

/// An `(offset, len)` slice of a [`History`]'s text.
#[derive(Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

/// A [`VerdictRec`] with its strings held as spans.
struct VerdictSlot {
    session: SessionId,
    tenant: Span,
    config: Span,
    machine: Span,
    error_state: Span,
    function: Span,
    message: Span,
}

/// An [`EventSummary`] with its strings held as spans.
struct EventSlot {
    session: SessionId,
    index: u64,
    thread: u16,
    failed: bool,
    label: Span,
    function: Option<Span>,
    machine: Option<Span>,
    entity: Option<Span>,
}

/// An [`OutcomeRec`] with its strings held as spans.
struct OutcomeSlot {
    session: SessionId,
    events_replayed: u64,
    divergences: u64,
    config: Span,
    behavior: Span,
    message: Option<Span>,
}

/// One judged session's rows, compacted (see the module docs). Rowids
/// are implicit: outcomes take `first_rowid..`, then verdicts, then
/// events, in the order the judge produced them.
struct History {
    /// The retention charge: the `approx_bytes_*` of the rows as judged.
    bytes: usize,
    first_rowid: u64,
    text: Box<str>,
    outcomes: Box<[OutcomeSlot]>,
    verdicts: Box<[VerdictSlot]>,
    events: Box<[EventSlot]>,
    rollups: Box<[MachineRollup]>,
}

/// Appends each distinct string to a history's text once.
struct TextBuilder<'a> {
    text: String,
    seen: HashMap<&'a str, Span>,
}

impl<'a> TextBuilder<'a> {
    fn span(&mut self, s: &'a str) -> Span {
        *self.seen.entry(s).or_insert_with(|| {
            // A session's text is bounded by its trace (the per-session
            // buffer cap) and the judge's per-row output; 4 GiB is far
            // beyond either.
            let end = u32::try_from(self.text.len() + s.len()).expect("history text fits u32");
            self.text.push_str(s);
            let len = s.len() as u32;
            Span { at: end - len, len }
        })
    }

    fn opt(&mut self, s: Option<&'a str>) -> Option<Span> {
        s.map(|s| self.span(s))
    }
}

impl History {
    /// Compacts a judge's rows; `first_rowid` is assigned later, under
    /// the table lock.
    fn new(
        outcomes: &[OutcomeRec],
        verdicts: &[VerdictRec],
        events: &[EventSummary],
        rollups: Vec<MachineRollup>,
    ) -> History {
        let bytes = outcomes.iter().map(approx_bytes_outcome).sum::<usize>()
            + verdicts.iter().map(approx_bytes_verdict).sum::<usize>()
            + events.iter().map(approx_bytes_event).sum::<usize>();
        let mut b = TextBuilder {
            text: String::new(),
            seen: HashMap::new(),
        };
        let outcomes = outcomes
            .iter()
            .map(|o| OutcomeSlot {
                session: o.session,
                events_replayed: o.events_replayed,
                divergences: o.divergences,
                config: b.span(&o.config),
                behavior: b.span(&o.behavior),
                message: b.opt(o.message.as_deref()),
            })
            .collect();
        let verdicts = verdicts
            .iter()
            .map(|v| VerdictSlot {
                session: v.session,
                tenant: b.span(&v.tenant),
                config: b.span(&v.config),
                machine: b.span(&v.machine),
                error_state: b.span(&v.error_state),
                function: b.span(&v.function),
                message: b.span(&v.message),
            })
            .collect();
        let events = events
            .iter()
            .map(|e| EventSlot {
                session: e.session,
                index: e.index,
                thread: e.thread,
                failed: e.failed,
                label: b.span(&e.label),
                function: b.opt(e.function.as_deref()),
                machine: b.opt(e.machine.as_deref()),
                entity: b.opt(e.entity.as_deref()),
            })
            .collect();
        History {
            bytes,
            first_rowid: 0,
            text: b.text.into_boxed_str(),
            outcomes,
            verdicts,
            events,
            rollups: rollups.into_boxed_slice(),
        }
    }

    fn rows(&self) -> u64 {
        (self.outcomes.len() + self.verdicts.len() + self.events.len()) as u64
    }

    fn str(&self, s: Span) -> &str {
        &self.text[s.at as usize..(s.at + s.len) as usize]
    }

    fn opt(&self, s: Option<Span>) -> Option<&str> {
        s.map(|s| self.str(s))
    }

    /// The first rowid and the number of rows of one family.
    fn family(&self, kind: QueryKind) -> (u64, usize) {
        let outcomes = self.outcomes.len() as u64;
        match kind {
            QueryKind::Outcomes => (self.first_rowid, self.outcomes.len()),
            QueryKind::Verdicts => (self.first_rowid + outcomes, self.verdicts.len()),
            QueryKind::Events => (
                self.first_rowid + outcomes + self.verdicts.len() as u64,
                self.events.len(),
            ),
        }
    }

    /// Pushes this session's rows that match `q` and lie past `after`,
    /// in rowid order, until `hits` holds `want` rows.
    fn scan<'a>(
        &'a self,
        q: &Query,
        after: u64,
        want: usize,
        hits: &mut Vec<(&'a History, usize)>,
    ) {
        let (first, n) = self.family(q.kind);
        let from = match after.checked_sub(first) {
            None => 0,
            Some(skip) => usize::try_from(skip.saturating_add(1)).map_or(n, |i| i.min(n)),
        };
        for i in from..n {
            if hits.len() >= want {
                return;
            }
            if self.matches(q, i) {
                hits.push((self, i));
            }
        }
    }

    /// Whether row `i` of `q.kind` passes `q`'s row filters (the
    /// session and tenant filters are the caller's).
    fn matches(&self, q: &Query, i: usize) -> bool {
        let is = |want: &Option<String>, got: &str| want.as_deref().is_none_or(|w| w == got);
        let is_opt = |want: &Option<String>, got: Option<&str>| {
            want.as_deref().is_none_or(|w| got == Some(w))
        };
        match q.kind {
            QueryKind::Verdicts => {
                let v = &self.verdicts[i];
                is(&q.config, self.str(v.config))
                    && is(&q.function, self.str(v.function))
                    && is(&q.machine, self.str(v.machine))
            }
            QueryKind::Events => {
                let e = &self.events[i];
                is_opt(&q.function, self.opt(e.function))
                    && is_opt(&q.machine, self.opt(e.machine))
                    && is_opt(&q.entity, self.opt(e.entity))
                    && q.thread.is_none_or(|th| th == e.thread)
                    && q.min_index.is_none_or(|m| e.index >= m)
                    && q.max_index.is_none_or(|m| e.index <= m)
            }
            QueryKind::Outcomes => is(&q.config, self.str(self.outcomes[i].config)),
        }
    }

    /// Row `i` of `kind` as the public row type, with its rowid.
    fn item(&self, kind: QueryKind, i: usize) -> (u64, QueryItem) {
        let rowid = self.family(kind).0 + i as u64;
        let item = match kind {
            QueryKind::Verdicts => {
                let v = &self.verdicts[i];
                QueryItem::Verdict(VerdictRec {
                    session: v.session,
                    tenant: self.str(v.tenant).to_string(),
                    config: self.str(v.config).to_string(),
                    machine: self.str(v.machine).to_string(),
                    error_state: self.str(v.error_state).to_string(),
                    function: self.str(v.function).to_string(),
                    message: self.str(v.message).to_string(),
                })
            }
            QueryKind::Events => {
                let e = &self.events[i];
                QueryItem::Event(EventSummary {
                    session: e.session,
                    index: e.index,
                    thread: e.thread,
                    label: self.str(e.label).to_string(),
                    function: self.opt(e.function).map(str::to_string),
                    machine: self.opt(e.machine).map(str::to_string),
                    entity: self.opt(e.entity).map(str::to_string),
                    failed: e.failed,
                })
            }
            QueryKind::Outcomes => {
                let o = &self.outcomes[i];
                QueryItem::Outcome(OutcomeRec {
                    session: o.session,
                    config: self.str(o.config).to_string(),
                    behavior: self.str(o.behavior).to_string(),
                    message: self.opt(o.message).map(str::to_string),
                    events_replayed: o.events_replayed,
                    divergences: o.divergences,
                })
            }
        };
        (rowid, item)
    }
}

/// [`DischargeStats`] as a record holds it: the inactive-machine set is
/// shared with every other record naming the same set.
struct Discharge {
    called_functions: u64,
    total_transitions: u64,
    discharged: u64,
    inactive_machines: Arc<[String]>,
}

struct Session {
    opened_seq: u64,
    tenant: Box<str>,
    configs: Box<[ReplayConfig]>,
    state: SessionState,
    frames: u64,
    program: Option<Box<str>>,
    obs: ObsCounters,
    discharge: Option<Discharge>,
    outside_manifest: bool,
    reason: Option<Box<str>>,
    history: Option<Arc<History>>,
    history_purged: bool,
    sealed_at: Option<Instant>,
    first_frame_at: Option<Instant>,
    seal_to_verdict_micros: Option<u64>,
    first_frame_micros: Option<u64>,
    streamed: bool,
    /// Bytes the session's decoder holds, as charged against the fleet
    /// buffered-bytes budget.
    buffered: u64,
    events_replayed: u64,
    divergences: u64,
    summaries_dropped: u64,
    bytes_received: u64,
}

struct TableInner {
    /// Boxed so the map's buckets stay two words: insert/remove churn
    /// at the record cap makes the map rehash into twice the buckets it
    /// needs, and an inline record made that step cost ~16 MiB resident.
    sessions: HashMap<SessionId, Box<Session>>,
    /// Terminal sessions by `(opened_seq, id)`: record-eviction order.
    terminal: BTreeSet<(u64, SessionId)>,
    /// Sessions holding history by `(opened_seq, id)`: purge order.
    holding: BTreeSet<(u64, SessionId)>,
    /// The histories holding at least one row, by first rowid (unique
    /// among them), shared with their session records.
    rows: BTreeMap<u64, Arc<History>>,
    /// `rows`, split by the session's tenant.
    tenant_rows: HashMap<String, BTreeMap<u64, Arc<History>>>,
    /// One shared copy of each distinct inactive-machine set.
    inactive_sets: HashSet<Arc<[String]>>,
    next_seq: u64,
    next_rowid: u64,
    history_bytes: usize,
    active: u64,   // sessions in Queued or Judging
    live: u64,     // sessions in any non-terminal state
    buffered: u64, // un-judged ingest bytes across all sessions
    fleet: FleetStats,
}

impl TableInner {
    /// Drops a session's history from its record and the indexes,
    /// releasing its retention charge.
    fn drop_history(&mut self, id: SessionId) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let Some(hist) = s.history.take() else {
            return;
        };
        self.holding.remove(&(s.opened_seq, id));
        if hist.rows() > 0 {
            let key = hist.first_rowid;
            self.rows.remove(&key);
            let tenant_rows = self
                .tenant_rows
                .get_mut(&*s.tenant)
                .expect("a session with rows is indexed under its tenant");
            tenant_rows.remove(&key);
            if tenant_rows.is_empty() {
                self.tenant_rows.remove(&*s.tenant);
            }
        }
        self.history_bytes -= hist.bytes;
    }

    /// The shared copy of an inactive-machine set.
    fn intern(&mut self, set: Vec<String>) -> Arc<[String]> {
        if let Some(shared) = self.inactive_sets.get(set.as_slice()) {
            return Arc::clone(shared);
        }
        let shared: Arc<[String]> = set.into();
        self.inactive_sets.insert(Arc::clone(&shared));
        shared
    }
}

/// The daemon's shared session store. See the module docs.
pub struct SessionTable {
    inner: Mutex<TableInner>,
    changed: Condvar,
    limits: StoreLimits,
}

impl SessionTable {
    /// An empty table with the given bounds.
    pub fn new(limits: StoreLimits) -> SessionTable {
        SessionTable {
            inner: Mutex::new(TableInner {
                sessions: HashMap::new(),
                terminal: BTreeSet::new(),
                holding: BTreeSet::new(),
                rows: BTreeMap::new(),
                tenant_rows: HashMap::new(),
                inactive_sets: HashSet::new(),
                next_seq: 0,
                next_rowid: 1,
                history_bytes: 0,
                active: 0,
                live: 0,
                buffered: 0,
                fleet: FleetStats {
                    retention_bytes: limits.retention_bytes as u64,
                    ..FleetStats::default()
                },
            }),
            changed: Condvar::new(),
            limits,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().expect("session table poisoned")
    }

    /// Opens a session. `streamed` records whether a live executor
    /// replays it while it uploads ([`SessionStats::streamed`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateSession`] if the id already exists;
    /// [`ServeError::FleetSaturated`] at the live-session cap.
    pub fn open(
        &self,
        id: SessionId,
        tenant: &str,
        configs: Vec<ReplayConfig>,
        streamed: bool,
    ) -> Result<(), ServeError> {
        let mut t = self.lock();
        if t.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateSession(id));
        }
        if t.live >= self.limits.max_live_sessions as u64 {
            return Err(ServeError::FleetSaturated {
                live: t.live,
                cap: self.limits.max_live_sessions as u64,
            });
        }
        let opened_seq = t.next_seq;
        t.next_seq += 1;
        t.fleet.opened += 1;
        t.live += 1;
        t.sessions.insert(
            id,
            Box::new(Session {
                opened_seq,
                tenant: tenant.into(),
                configs: configs.into_boxed_slice(),
                state: SessionState::Open,
                frames: 1,
                program: None,
                obs: ObsCounters::default(),
                discharge: None,
                outside_manifest: false,
                reason: None,
                history: None,
                history_purged: false,
                sealed_at: None,
                first_frame_at: None,
                seal_to_verdict_micros: None,
                first_frame_micros: None,
                streamed,
                buffered: 0,
                events_replayed: 0,
                divergences: 0,
                summaries_dropped: 0,
                bytes_received: 0,
            }),
        );
        self.changed.notify_all();
        Ok(())
    }

    fn session_mut(t: &mut TableInner, id: SessionId) -> Result<&mut Session, ServeError> {
        t.sessions
            .get_mut(&id)
            .map(|s| &mut **s)
            .ok_or(ServeError::UnknownSession(id))
    }

    fn require_open(s: &Session, id: SessionId) -> Result<(), ServeError> {
        match s.state {
            SessionState::Open => Ok(()),
            SessionState::Quarantined => Err(ServeError::Quarantined {
                session: id,
                reason: s.reason.as_deref().unwrap_or_default().to_string(),
            }),
            other => Err(ServeError::SessionNotOpen {
                session: id,
                state: other.to_string(),
            }),
        }
    }

    /// Admits one `Append` chunk of `chunk_len` bytes: lifecycle and
    /// backpressure checks, byte and frame accounting. The chunk itself
    /// goes to the session's decoder, not the table; the whole chunk is
    /// charged to the fleet's buffered budget, and
    /// [`SessionTable::settle`] releases what the decoder let go of.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the chunk would take the bytes
    /// the session has uploaded past the per-session cap (a live
    /// session's decoded records stay resident in its judge, so the cap
    /// reads uploads, not the undecoded tail),
    /// [`ServeError::FleetBackpressure`] when it would take the bytes
    /// resident fleet-wide past the fleet cap; lifecycle errors
    /// otherwise.
    pub fn admit(&self, id: SessionId, chunk_len: u64) -> Result<(), ServeError> {
        let mut t = self.lock();
        let cap = self.limits.max_buffered;
        let total = t.buffered;
        let total_cap = self.limits.max_total_buffered;
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        if s.bytes_received + chunk_len > cap {
            return Err(ServeError::Backpressure {
                session: id,
                buffered: s.bytes_received,
                cap,
            });
        }
        if total + chunk_len > total_cap {
            return Err(ServeError::FleetBackpressure {
                buffered: total,
                cap: total_cap,
            });
        }
        s.bytes_received += chunk_len;
        s.frames += 1;
        s.buffered += chunk_len;
        if s.first_frame_at.is_none() {
            s.first_frame_at = Some(Instant::now());
        }
        t.buffered += chunk_len;
        t.fleet.buffered_bytes_high_water = t.fleet.buffered_bytes_high_water.max(t.buffered);
        Ok(())
    }

    /// Settles a session's buffered charge down to the `pending` bytes
    /// its decoder still holds — the moment decoded bytes stop being
    /// resident. No-op on unknown or already-drained sessions.
    pub fn settle(&self, id: SessionId, pending: u64) {
        let mut t = self.lock();
        let Some(s) = t.sessions.get_mut(&id) else {
            return;
        };
        let release = s.buffered.saturating_sub(pending);
        s.buffered -= release;
        t.buffered -= release;
    }

    /// Seals a session: applies the verification of its declared
    /// length and checksum, made against its decoder's running totals
    /// outside this lock, and marks it queued. The caller enqueues the
    /// id for a worker. Lifecycle errors take precedence over
    /// `declared`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Quarantined`] when `declared` carries a mismatch
    /// reason (the session is poisoned in place); lifecycle errors
    /// otherwise.
    pub fn seal(&self, id: SessionId, declared: Result<(), String>) -> Result<(), ServeError> {
        let mut t = self.lock();
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        s.frames += 1;
        if let Err(reason) = declared {
            self.poison(&mut t, id, &reason);
            self.changed.notify_all();
            return Err(ServeError::Quarantined {
                session: id,
                reason,
            });
        }
        let s = Self::session_mut(&mut t, id)?;
        s.state = SessionState::Queued;
        s.sealed_at = Some(Instant::now());
        t.active += 1;
        self.changed.notify_all();
        Ok(())
    }

    /// Client-side abort: releases the buffered charge, terminal state.
    ///
    /// # Errors
    ///
    /// Lifecycle errors; aborting a non-open session is invalid.
    pub fn abort(&self, id: SessionId, reason: &str) -> Result<(), ServeError> {
        let mut t = self.lock();
        let s = Self::session_mut(&mut t, id)?;
        Self::require_open(s, id)?;
        s.state = SessionState::Aborted;
        s.reason = Some(reason.into());
        let freed = std::mem::take(&mut s.buffered);
        s.frames += 1;
        let key = (s.opened_seq, id);
        t.terminal.insert(key);
        t.buffered -= freed;
        t.live -= 1;
        t.fleet.aborted += 1;
        self.evict_session_records(&mut t);
        self.changed.notify_all();
        Ok(())
    }

    fn poison(&self, t: &mut TableInner, id: SessionId, reason: &str) {
        let Some(s) = t.sessions.get_mut(&id) else {
            return;
        };
        if s.state.is_terminal() {
            return;
        }
        if matches!(s.state, SessionState::Queued | SessionState::Judging) {
            t.active -= 1;
        }
        s.state = SessionState::Quarantined;
        s.reason = Some(reason.into());
        let freed = std::mem::take(&mut s.buffered);
        let key = (s.opened_seq, id);
        t.terminal.insert(key);
        t.buffered -= freed;
        t.live -= 1;
        t.fleet.quarantined += 1;
        self.evict_session_records(t);
    }

    /// Quarantines a session from outside the worker path (stream-level
    /// corruption on its connection). Terminal sessions are left alone.
    pub fn quarantine(&self, id: SessionId, reason: &str) {
        let mut t = self.lock();
        self.poison(&mut t, id, reason);
        self.changed.notify_all();
    }

    /// Worker entry: marks a queued session judging and releases its
    /// buffered charge (the worker now owns its decoder). Returns the
    /// session's tenant, or `None` when the session is no longer queued
    /// (e.g. it was quarantined while waiting).
    pub fn begin_judging(&self, id: SessionId) -> Option<String> {
        let mut t = self.lock();
        let s = t.sessions.get_mut(&id)?;
        if s.state != SessionState::Queued {
            return None;
        }
        s.state = SessionState::Judging;
        let charged = std::mem::take(&mut s.buffered);
        let tenant = s.tenant.to_string();
        t.buffered -= charged;
        self.changed.notify_all();
        Some(tenant)
    }

    /// Worker exit, success path: records the judge output, assigns
    /// rowids, charges the retention budget, and purges oldest-first if
    /// over it. The rows are compacted before the lock is taken.
    ///
    /// A session can leave `Judging` while the worker runs: a
    /// stream-level quarantine poisons it in place (already releasing
    /// its `active` slot). Quarantine is terminal, so a late judge
    /// output is discarded — nothing is recorded and no counter moves.
    pub fn finish(&self, id: SessionId, out: JudgeOutput) {
        let mut hist = History::new(&out.outcomes, &out.verdicts, &out.events, out.rollups);
        let mut guard = self.lock();
        let t = &mut *guard;
        if t.sessions.get(&id).map(|s| s.state) != Some(SessionState::Judging) {
            return;
        }
        hist.first_rowid = t.next_rowid;
        let hist = Arc::new(hist);
        t.next_rowid += hist.rows();
        t.fleet.total_verdicts += hist.verdicts.len() as u64;
        t.fleet.total_events_replayed += out.events_replayed;
        t.fleet.judged += 1;
        t.fleet.outside_manifest_sessions += u64::from(out.outside_manifest);
        t.fleet.streamed_sessions += u64::from(t.sessions.get(&id).is_some_and(|s| s.streamed));
        t.history_bytes += hist.bytes;
        let inactive_machines = t.intern(out.discharge.inactive_machines);
        let s = t.sessions.get_mut(&id).expect("checked Judging above");
        s.state = SessionState::Judged;
        s.program = Some(out.program.into());
        s.obs = out.obs;
        s.discharge = Some(Discharge {
            called_functions: out.discharge.called_functions,
            total_transitions: out.discharge.total_transitions,
            discharged: out.discharge.discharged,
            inactive_machines,
        });
        s.outside_manifest = out.outside_manifest;
        s.events_replayed = out.events_replayed;
        s.divergences = out.divergences;
        s.summaries_dropped = out.events_dropped;
        s.seal_to_verdict_micros = s
            .sealed_at
            .map(|at| at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        s.first_frame_micros = s
            .first_frame_at
            .map(|at| at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let seq_key = (s.opened_seq, id);
        if hist.rows() > 0 {
            let key = hist.first_rowid;
            match t.tenant_rows.get_mut(&*s.tenant) {
                Some(tenant_rows) => {
                    tenant_rows.insert(key, Arc::clone(&hist));
                }
                None => {
                    let tenant = s.tenant.to_string();
                    t.tenant_rows
                        .insert(tenant, BTreeMap::from([(key, Arc::clone(&hist))]));
                }
            }
            t.rows.insert(key, Arc::clone(&hist));
        }
        s.history = Some(hist);
        t.terminal.insert(seq_key);
        t.holding.insert(seq_key);
        t.active -= 1;
        t.live -= 1;
        self.enforce_retention(t);
        self.evict_session_records(t);
        t.fleet.history_bytes = t.history_bytes as u64;
        self.changed.notify_all();
    }

    /// Worker exit, failure path.
    pub fn fail(&self, id: SessionId, reason: &str) {
        let mut t = self.lock();
        self.poison(&mut t, id, reason);
        self.changed.notify_all();
    }

    fn enforce_retention(&self, t: &mut TableInner) {
        // Oldest-first by open order, among terminal sessions that still
        // hold history. Deterministic: open order is a total order
        // assigned under this same lock.
        while t.history_bytes > self.limits.retention_bytes {
            let Some(&(_, victim)) = t.holding.first() else {
                break;
            };
            t.drop_history(victim);
            t.sessions
                .get_mut(&victim)
                .expect("victim exists")
                .history_purged = true;
            t.fleet.purged_sessions += 1;
        }
    }

    /// Drops whole terminal session records, oldest-first, while the
    /// table holds more than the record cap — the bound that keeps a
    /// fleet of short-lived sessions from growing the map forever. Live
    /// sessions are never dropped (the live cap bounds those), so the
    /// map can exceed the record cap only by live sessions. An evicted
    /// id stops answering stats and may be reopened.
    fn evict_session_records(&self, t: &mut TableInner) {
        while t.sessions.len() > self.limits.max_session_records {
            let Some((_, victim)) = t.terminal.pop_first() else {
                break;
            };
            t.drop_history(victim);
            t.sessions.remove(&victim);
            t.fleet.evicted_sessions += 1;
        }
        t.fleet.history_bytes = t.history_bytes as u64;
    }

    /// A stats snapshot for one session.
    pub fn stats(&self, id: SessionId) -> Option<SessionStats> {
        let t = self.lock();
        let s = t.sessions.get(&id)?;
        Some(Self::snapshot(id, s))
    }

    fn snapshot(id: SessionId, s: &Session) -> SessionStats {
        let (verdicts, summaries) = match &s.history {
            Some(h) => (h.verdicts.len() as u64, h.events.len() as u64),
            None => (0, 0),
        };
        SessionStats {
            session: id,
            tenant: s.tenant.to_string(),
            state: s.state,
            configs: s.configs.iter().map(|c| c.label()).collect(),
            program: s.program.as_deref().map(str::to_string),
            bytes: s.bytes_received,
            frames: s.frames,
            events_replayed: s.events_replayed,
            divergences: s.divergences,
            verdicts,
            summaries,
            summaries_dropped: s.summaries_dropped,
            obs: s.obs,
            discharge: s.discharge.as_ref().map(|d| DischargeStats {
                called_functions: d.called_functions,
                total_transitions: d.total_transitions,
                discharged: d.discharged,
                inactive_machines: d.inactive_machines.to_vec(),
            }),
            outside_manifest: s.outside_manifest,
            reason: s.reason.as_deref().map(str::to_string),
            history_purged: s.history_purged,
            streamed: s.streamed,
            seal_to_verdict_micros: s.seal_to_verdict_micros,
            first_frame_micros: s.first_frame_micros,
        }
    }

    /// The per-machine rollups of a judged session (empty if purged or
    /// not judged).
    pub fn rollups(&self, id: SessionId) -> Vec<MachineRollup> {
        let t = self.lock();
        t.sessions
            .get(&id)
            .and_then(|s| s.history.as_ref())
            .map(|h| h.rollups.to_vec())
            .unwrap_or_default()
    }

    /// Fleet counters.
    pub fn fleet(&self) -> FleetStats {
        let t = self.lock();
        let mut f = t.fleet;
        f.live = t.live;
        f.history_bytes = t.history_bytes as u64;
        f
    }

    /// Runs a query: matching history rows in rowid (insertion) order,
    /// resuming after `query.cursor`. Walks the histories holding rows
    /// in rowid order — only the named session's, or only the named
    /// tenant's, when those filters are given — from the one holding
    /// `cursor + 1`, and stops once one row past the page has matched.
    pub fn query(&self, query: &Query) -> QueryPage {
        let limit = match query.limit {
            0 => 100,
            n => n.min(1000),
        };
        let after = query.cursor.unwrap_or(0);
        let want = limit + 1;
        let t = self.lock();
        let mut hits: Vec<(&History, usize)> = Vec::new();
        let rows = match (query.session, &query.tenant) {
            (Some(id), tenant) => {
                let hist = t.sessions.get(&id).and_then(|s| {
                    let tenant_ok = tenant.as_deref().is_none_or(|want| &*s.tenant == want);
                    s.history.as_deref().filter(|_| tenant_ok)
                });
                if let Some(hist) = hist {
                    hist.scan(query, after, want, &mut hits);
                }
                None
            }
            (None, Some(tenant)) => t.tenant_rows.get(tenant.as_str()),
            (None, None) => Some(&t.rows),
        };
        if let Some(rows) = rows {
            let from = rows
                .range(..=after)
                .next_back()
                .map_or(0, |(&first, _)| first);
            for (_, hist) in rows.range(from..) {
                if hits.len() >= want {
                    break;
                }
                hist.scan(query, after, want, &mut hits);
            }
        }
        let more = hits.len() > limit;
        hits.truncate(limit);
        let mut next_cursor = None;
        let items = hits
            .iter()
            .map(|&(hist, i)| {
                let (rowid, item) = hist.item(query.kind, i);
                next_cursor = more.then_some(rowid);
                item
            })
            .collect();
        QueryPage { items, next_cursor }
    }

    /// Blocks until the session reaches a terminal state; returns its
    /// stats, or `None` for an unknown session.
    pub fn wait_terminal(&self, id: SessionId) -> Option<SessionStats> {
        let mut t = self.lock();
        loop {
            let s = t.sessions.get(&id)?;
            if s.state.is_terminal() {
                return Some(Self::snapshot(id, s));
            }
            t = self.changed.wait(t).expect("session table poisoned");
        }
    }

    /// Blocks until no session is queued or judging.
    pub fn wait_idle(&self) {
        let mut t = self.lock();
        while t.active > 0 {
            t = self.changed.wait(t).expect("session table poisoned");
        }
    }

    /// Every known session id, in open order (for tests and the CLI).
    pub fn session_ids(&self) -> Vec<SessionId> {
        let t = self.lock();
        let mut ids: Vec<(u64, SessionId)> = t
            .sessions
            .iter()
            .map(|(id, s)| (s.opened_seq, *id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::Session;

    // At the record cap (16384 by default) the sessions map holds 32768
    // inline buckets, so every 100 B of inline record costs about 3.2 MB
    // of resident memory whether or not the records are live. Anything
    // large or optional belongs behind a pointer.
    #[test]
    fn session_record_stays_small() {
        let size = std::mem::size_of::<Session>();
        assert!(size <= 320, "size_of::<Session>() = {size}");
    }
}
