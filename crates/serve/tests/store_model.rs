//! Model equivalence for the verdict store: a seeded mix of lifecycle
//! operations drives a [`SessionTable`] with tiny limits, so retention
//! purges and record evictions fire constantly, and after every
//! operation the table must agree with a reference model.
//!
//! The model keeps the store's plainest possible algorithms: victims are
//! found by `min_by_key` over every session, and a query collects every
//! matching row, sorts by rowid and truncates to the page.
//!
//! The table holds no trace bytes; the driver plays each session's
//! stream decoder. It keeps the bytes a session uploaded, settles a
//! retained session's charge at every byte and a live session's at a
//! short undecoded tail, and verifies seal declarations against the
//! bytes before handing the verdict to `seal`. Agreement
//! covers every query kind and filter (with and without a cursor,
//! including cursors inside one session's row range), `fleet()`,
//! `stats(id)` and `rollups(id)` for every id, and `session_ids()`.

use std::collections::HashMap;

use jinn_replay::format::fnv1a;
use jinn_replay::{verify_seal_declaration, ReplayConfig};
use jinn_serve::{
    DischargeStats, EventSummary, FleetStats, JudgeOutput, MachineRollup, ObsCounters, OutcomeRec,
    Query, QueryItem, QueryKind, QueryPage, ServeError, SessionState, SessionStats, SessionTable,
    StoreLimits, VerdictRec,
};

const IDS: u64 = 16;
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
const CONFIGS: [&str; 3] = ["Jinn on HotSpot", "HotSpot -Xcheck:jni", "J9"];
const MACHINES: [&str; 4] = [
    "local-reference",
    "global-reference",
    "exception-state",
    "monitor",
];
const FUNCTIONS: [&str; 4] = [
    "NewGlobalRef",
    "GetStringUTFChars",
    "CallVoidMethod",
    "Foo.bar",
];
const ENTITIES: [&str; 3] = ["ref#1", "ref#2", "str#9"];
const LABELS: [&str; 3] = ["jni-enter", "fsm-transition", "verdict"];
const SELECTIONS: [&[&str]; 3] = [&[], &["jinn"], &["jinn", "xcheck:j9"]];

fn limits() -> StoreLimits {
    StoreLimits {
        retention_bytes: 2400,
        max_buffered: 96,
        max_live_sessions: 6,
        max_session_records: 9,
        max_total_buffered: 200,
    }
}

/// splitmix64: a seeded, dependency-free operation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn maybe(&mut self, xs: &[&str]) -> Option<String> {
        (self.below(3) != 0).then(|| self.pick(xs).to_string())
    }
}

// ---- the reference model -------------------------------------------------

fn approx_verdict(v: &VerdictRec) -> usize {
    std::mem::size_of::<VerdictRec>()
        + v.tenant.len()
        + v.config.len()
        + v.machine.len()
        + v.error_state.len()
        + v.function.len()
        + v.message.len()
}

fn approx_event(e: &EventSummary) -> usize {
    std::mem::size_of::<EventSummary>()
        + e.label.len()
        + e.function.as_deref().map_or(0, str::len)
        + e.machine.as_deref().map_or(0, str::len)
        + e.entity.as_deref().map_or(0, str::len)
}

fn approx_outcome(o: &OutcomeRec) -> usize {
    std::mem::size_of::<OutcomeRec>()
        + o.config.len()
        + o.behavior.len()
        + o.message.as_deref().map_or(0, str::len)
}

struct History {
    bytes: usize,
    rows: Vec<(u64, QueryItem)>,
    verdicts: u64,
    events: u64,
    rollups: Vec<MachineRollup>,
}

struct Session {
    opened_seq: u64,
    tenant: String,
    configs: Vec<ReplayConfig>,
    state: SessionState,
    /// Whether a live executor replays the session while it uploads.
    live: bool,
    /// Every byte uploaded: the decoder's running totals.
    uploaded: Vec<u8>,
    /// Bytes charged to the buffered budgets.
    charged: u64,
    frames: u64,
    bytes: u64,
    appended: bool,
    out: Option<JudgeOutput>,
    reason: Option<String>,
    history: Option<History>,
    history_purged: bool,
}

struct Model {
    limits: StoreLimits,
    sessions: HashMap<u64, Session>,
    next_seq: u64,
    next_rowid: u64,
    history_bytes: usize,
    live: u64,
    buffered: u64,
    fleet: FleetStats,
}

impl Model {
    fn new(limits: StoreLimits) -> Model {
        Model {
            limits,
            sessions: HashMap::new(),
            next_seq: 0,
            next_rowid: 1,
            history_bytes: 0,
            live: 0,
            buffered: 0,
            fleet: FleetStats {
                retention_bytes: limits.retention_bytes as u64,
                ..FleetStats::default()
            },
        }
    }

    fn open_session(&self, id: u64) -> Result<&Session, ServeError> {
        let s = self
            .sessions
            .get(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        match s.state {
            SessionState::Open => Ok(s),
            SessionState::Quarantined => Err(ServeError::Quarantined {
                session: id,
                reason: s.reason.clone().unwrap_or_default(),
            }),
            other => Err(ServeError::SessionNotOpen {
                session: id,
                state: other.to_string(),
            }),
        }
    }

    fn open(
        &mut self,
        id: u64,
        tenant: &str,
        configs: Vec<ReplayConfig>,
        live: bool,
    ) -> Result<(), ServeError> {
        if self.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateSession(id));
        }
        if self.live >= self.limits.max_live_sessions as u64 {
            return Err(ServeError::FleetSaturated {
                live: self.live,
                cap: self.limits.max_live_sessions as u64,
            });
        }
        self.sessions.insert(
            id,
            Session {
                opened_seq: self.next_seq,
                tenant: tenant.to_string(),
                configs,
                state: SessionState::Open,
                live,
                uploaded: Vec::new(),
                charged: 0,
                frames: 1,
                bytes: 0,
                appended: false,
                out: None,
                reason: None,
                history: None,
                history_purged: false,
            },
        );
        self.next_seq += 1;
        self.fleet.opened += 1;
        self.live += 1;
        Ok(())
    }

    fn admit(&mut self, id: u64, chunk: &[u8]) -> Result<(), ServeError> {
        let s = self.open_session(id)?;
        let len = chunk.len() as u64;
        if s.charged + len > self.limits.max_buffered {
            return Err(ServeError::Backpressure {
                session: id,
                buffered: s.charged,
                cap: self.limits.max_buffered,
            });
        }
        if self.buffered + len > self.limits.max_total_buffered {
            return Err(ServeError::FleetBackpressure {
                buffered: self.buffered,
                cap: self.limits.max_total_buffered,
            });
        }
        let s = self.sessions.get_mut(&id).expect("open");
        s.uploaded.extend_from_slice(chunk);
        s.charged += len;
        s.bytes += len;
        s.frames += 1;
        s.appended = true;
        self.buffered += len;
        self.fleet.buffered_bytes_high_water =
            self.fleet.buffered_bytes_high_water.max(self.buffered);
        Ok(())
    }

    /// The bytes a session's decoder still holds after an `Append`: all
    /// of them when retained, a short undecoded tail when live.
    fn pending(&self, id: u64) -> u64 {
        let s = &self.sessions[&id];
        let all = s.uploaded.len() as u64;
        if s.live {
            all % 8
        } else {
            all
        }
    }

    fn settle(&mut self, id: u64, pending: u64) {
        let s = self.sessions.get_mut(&id).expect("admitted");
        let release = s.charged.saturating_sub(pending);
        s.charged -= release;
        self.buffered -= release;
    }

    /// The seal verdict the session's decoder gives for a declaration.
    fn declared(&self, id: u64, total_len: u64, checksum: u64) -> Result<(), String> {
        let uploaded = self.sessions.get(&id).map_or(&[][..], |s| &s.uploaded);
        let (len, sum) = (uploaded.len() as u64, fnv1a(uploaded));
        verify_seal_declaration(total_len, checksum, len, sum).map_err(|m| m.to_string())
    }

    fn seal(&mut self, id: u64, declared: Result<(), String>) -> Result<(), ServeError> {
        self.open_session(id)?;
        let s = self.sessions.get_mut(&id).expect("open");
        s.frames += 1;
        if let Err(reason) = declared {
            self.poison(id, &reason);
            return Err(ServeError::Quarantined {
                session: id,
                reason,
            });
        }
        s.state = SessionState::Queued;
        Ok(())
    }

    fn abort(&mut self, id: u64, reason: &str) -> Result<(), ServeError> {
        self.open_session(id)?;
        let s = self.sessions.get_mut(&id).expect("open");
        s.state = SessionState::Aborted;
        s.reason = Some(reason.to_string());
        s.frames += 1;
        self.buffered -= std::mem::take(&mut s.charged);
        self.live -= 1;
        self.fleet.aborted += 1;
        self.evict();
        Ok(())
    }

    fn poison(&mut self, id: u64, reason: &str) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        if s.state.is_terminal() {
            return;
        }
        s.state = SessionState::Quarantined;
        s.reason = Some(reason.to_string());
        self.buffered -= std::mem::take(&mut s.charged);
        self.live -= 1;
        self.fleet.quarantined += 1;
        self.evict();
    }

    fn begin_judging(&mut self, id: u64) -> Option<String> {
        let s = self.sessions.get_mut(&id)?;
        if s.state != SessionState::Queued {
            return None;
        }
        s.state = SessionState::Judging;
        self.buffered -= std::mem::take(&mut s.charged);
        Some(s.tenant.clone())
    }

    fn finish(&mut self, id: u64, out: JudgeOutput) {
        if self.sessions.get(&id).map(|s| s.state) != Some(SessionState::Judging) {
            return;
        }
        let mut bytes = 0;
        let mut rows = Vec::new();
        let mut rowid = || {
            self.next_rowid += 1;
            self.next_rowid - 1
        };
        for o in &out.outcomes {
            bytes += approx_outcome(o);
            rows.push((rowid(), QueryItem::Outcome(o.clone())));
        }
        for v in &out.verdicts {
            bytes += approx_verdict(v);
            rows.push((rowid(), QueryItem::Verdict(v.clone())));
        }
        for e in &out.events {
            bytes += approx_event(e);
            rows.push((rowid(), QueryItem::Event(e.clone())));
        }
        self.fleet.total_verdicts += out.verdicts.len() as u64;
        self.fleet.total_events_replayed += out.events_replayed;
        self.fleet.judged += 1;
        self.fleet.outside_manifest_sessions += u64::from(out.outside_manifest);
        self.history_bytes += bytes;
        let s = self.sessions.get_mut(&id).expect("judging");
        self.fleet.streamed_sessions += u64::from(s.live);
        s.state = SessionState::Judged;
        s.history = Some(History {
            bytes,
            rows,
            verdicts: out.verdicts.len() as u64,
            events: out.events.len() as u64,
            rollups: out.rollups.clone(),
        });
        s.out = Some(out);
        self.live -= 1;
        while self.history_bytes > self.limits.retention_bytes {
            let victim = self
                .sessions
                .iter()
                .filter(|(_, s)| s.state.is_terminal() && s.history.is_some())
                .min_by_key(|(_, s)| s.opened_seq)
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break;
            };
            let s = self.sessions.get_mut(&victim).expect("victim");
            self.history_bytes -= s.history.take().expect("holds history").bytes;
            s.history_purged = true;
            self.fleet.purged_sessions += 1;
        }
        self.evict();
    }

    fn evict(&mut self) {
        while self.sessions.len() > self.limits.max_session_records {
            let victim = self
                .sessions
                .iter()
                .filter(|(_, s)| s.state.is_terminal())
                .min_by_key(|(_, s)| s.opened_seq)
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break;
            };
            let s = self.sessions.remove(&victim).expect("victim");
            if let Some(h) = s.history {
                self.history_bytes -= h.bytes;
            }
            self.fleet.evicted_sessions += 1;
        }
    }

    fn fleet(&self) -> FleetStats {
        FleetStats {
            live: self.live,
            history_bytes: self.history_bytes as u64,
            // The daemon counts contained panics; the table never sees one.
            contained_panics: 0,
            ..self.fleet
        }
    }

    fn stats(&self, id: u64) -> Option<SessionStats> {
        let s = self.sessions.get(&id)?;
        let out = s.out.as_ref();
        let judged = s.state == SessionState::Judged;
        Some(SessionStats {
            session: id,
            tenant: s.tenant.clone(),
            state: s.state,
            configs: s.configs.iter().map(|c| c.label()).collect(),
            program: out.map(|o| o.program.clone()),
            bytes: s.bytes,
            frames: s.frames,
            events_replayed: out.map_or(0, |o| o.events_replayed),
            divergences: out.map_or(0, |o| o.divergences),
            verdicts: s.history.as_ref().map_or(0, |h| h.verdicts),
            summaries: s.history.as_ref().map_or(0, |h| h.events),
            summaries_dropped: out.map_or(0, |o| o.events_dropped),
            obs: out.map_or(ObsCounters::default(), |o| o.obs),
            discharge: out.map(|o| o.discharge.clone()),
            outside_manifest: out.is_some_and(|o| o.outside_manifest),
            reason: s.reason.clone(),
            history_purged: s.history_purged,
            streamed: s.live,
            seal_to_verdict_micros: judged.then_some(0),
            first_frame_micros: (judged && s.appended).then_some(0),
        })
    }

    fn rollups(&self, id: u64) -> Vec<MachineRollup> {
        self.sessions
            .get(&id)
            .and_then(|s| s.history.as_ref())
            .map(|h| h.rollups.clone())
            .unwrap_or_default()
    }

    fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<(u64, u64)> = self
            .sessions
            .iter()
            .map(|(id, s)| (s.opened_seq, *id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    fn query(&self, q: &Query) -> QueryPage {
        let limit = match q.limit {
            0 => 100,
            n => n.min(1000),
        };
        let after = q.cursor.unwrap_or(0);
        let is = |want: &Option<String>, got: &str| want.as_deref().is_none_or(|w| w == got);
        let is_opt = |want: &Option<String>, got: &Option<String>| {
            want.as_deref().is_none_or(|w| got.as_deref() == Some(w))
        };
        let mut matched: Vec<(u64, QueryItem)> = Vec::new();
        for (&id, s) in &self.sessions {
            if q.session.is_some_and(|want| want != id)
                || q.tenant.as_ref().is_some_and(|t| t != &s.tenant)
            {
                continue;
            }
            let Some(h) = &s.history else {
                continue;
            };
            for (rowid, item) in &h.rows {
                let keep = *rowid > after
                    && match (q.kind, item) {
                        (QueryKind::Verdicts, QueryItem::Verdict(v)) => {
                            is(&q.config, &v.config)
                                && is(&q.function, &v.function)
                                && is(&q.machine, &v.machine)
                        }
                        (QueryKind::Events, QueryItem::Event(e)) => {
                            is_opt(&q.function, &e.function)
                                && is_opt(&q.machine, &e.machine)
                                && is_opt(&q.entity, &e.entity)
                                && q.thread.is_none_or(|t| t == e.thread)
                                && q.min_index.is_none_or(|m| e.index >= m)
                                && q.max_index.is_none_or(|m| e.index <= m)
                        }
                        (QueryKind::Outcomes, QueryItem::Outcome(o)) => is(&q.config, &o.config),
                        _ => false,
                    };
                if keep {
                    matched.push((*rowid, item.clone()));
                }
            }
        }
        matched.sort_by_key(|(rowid, _)| *rowid);
        let more = matched.len() > limit;
        matched.truncate(limit);
        QueryPage {
            next_cursor: if more {
                matched.last().map(|(rowid, _)| *rowid)
            } else {
                None
            },
            items: matched.into_iter().map(|(_, item)| item).collect(),
        }
    }
}

// ---- generated inputs ------------------------------------------------------

/// A synthetic judge output for session `id`; a quarter hold no rows.
fn judge_output(rng: &mut Rng, id: u64, tenant: &str) -> JudgeOutput {
    let empty = rng.below(4) == 0;
    let n = |rng: &mut Rng, max: u64| {
        if empty {
            0
        } else {
            rng.below(max + 1) as usize
        }
    };
    let outcomes = (0..n(rng, 3))
        .map(|_| OutcomeRec {
            session: id,
            config: rng.pick(&CONFIGS).to_string(),
            behavior: rng.pick(&["running", "crash", "exception"]).to_string(),
            message: rng.maybe(&["leaked ref", "bad state"]),
            events_replayed: rng.below(50),
            divergences: rng.below(2),
        })
        .collect();
    let verdicts = (0..n(rng, 5))
        .map(|_| VerdictRec {
            session: id,
            tenant: tenant.to_string(),
            config: rng.pick(&CONFIGS).to_string(),
            machine: rng.pick(&MACHINES).to_string(),
            error_state: rng.pick(&["Error:Dangling", "Error:Leak"]).to_string(),
            function: rng.pick(&FUNCTIONS).to_string(),
            message: format!("violation {}", rng.below(1000)),
        })
        .collect();
    let events = (0..n(rng, 6))
        .map(|k| EventSummary {
            session: id,
            index: k as u64 * 3 + rng.below(3),
            thread: rng.below(3) as u16,
            label: rng.pick(&LABELS).to_string(),
            function: rng.maybe(&FUNCTIONS),
            machine: rng.maybe(&MACHINES),
            entity: rng.maybe(&ENTITIES),
            failed: rng.below(2) == 0,
        })
        .collect();
    let inactive = ["monitor", "critical-section", "jni-env"]
        .iter()
        .filter(|_| rng.below(2) == 0)
        .map(|m| m.to_string())
        .collect();
    JudgeOutput {
        program: format!("Prog{}", rng.below(4)),
        outcomes,
        verdicts,
        events,
        events_dropped: rng.below(3),
        rollups: (0..rng.below(3))
            .map(|k| MachineRollup {
                machine: MACHINES[k as usize].to_string(),
                transitions: rng.below(20),
                entities: rng.below(5),
                errors: rng.below(2),
                unknown_transitions: 0,
            })
            .collect(),
        obs: ObsCounters {
            dropped: rng.below(2),
        },
        discharge: DischargeStats {
            called_functions: rng.below(9),
            total_transitions: 32,
            discharged: rng.below(32),
            inactive_machines: inactive,
        },
        events_replayed: rng.below(100),
        divergences: rng.below(2),
        outside_manifest: rng.below(5) == 0,
    }
}

/// Timing fields reduced to whether they are set.
fn normalized(s: Option<SessionStats>) -> Option<String> {
    s.map(|s| {
        format!(
            "{:?}",
            SessionStats {
                seal_to_verdict_micros: s.seal_to_verdict_micros.map(|_| 0),
                first_frame_micros: s.first_frame_micros.map(|_| 0),
                ..s
            }
        )
    })
}

/// Every filter shape a query can take, over the generated vocabulary.
fn filters(rng: &mut Rng) -> Vec<Query> {
    let mut qs = vec![Query::default()];
    for id in 0..IDS {
        qs.push(Query {
            session: Some(id),
            ..Query::default()
        });
    }
    for t in TENANTS.iter().chain(&["nobody"]) {
        qs.push(Query {
            tenant: Some(t.to_string()),
            ..Query::default()
        });
        qs.push(Query {
            tenant: Some(t.to_string()),
            session: Some(rng.below(IDS)),
            ..Query::default()
        });
        qs.push(Query {
            tenant: Some(t.to_string()),
            machine: Some(rng.pick(&MACHINES).to_string()),
            ..Query::default()
        });
    }
    for c in CONFIGS {
        qs.push(Query {
            config: Some(c.to_string()),
            ..Query::default()
        });
    }
    for m in MACHINES {
        qs.push(Query {
            machine: Some(m.to_string()),
            ..Query::default()
        });
    }
    for f in FUNCTIONS {
        qs.push(Query {
            function: Some(f.to_string()),
            ..Query::default()
        });
    }
    for e in ENTITIES {
        qs.push(Query {
            entity: Some(e.to_string()),
            ..Query::default()
        });
    }
    for th in 0..3 {
        qs.push(Query {
            thread: Some(th),
            ..Query::default()
        });
    }
    qs.push(Query {
        min_index: Some(rng.below(10)),
        max_index: Some(rng.below(20)),
        ..Query::default()
    });
    qs.push(Query {
        config: Some(rng.pick(&CONFIGS).to_string()),
        function: Some(rng.pick(&FUNCTIONS).to_string()),
        machine: Some(rng.pick(&MACHINES).to_string()),
        ..Query::default()
    });
    qs
}

// ---- driving the table and the model -----------------------------------------

fn check(table: &SessionTable, model: &Model, rng: &mut Rng, step: usize, op: &str) {
    let at = |what: &str| format!("step {step} ({op}): {what}");
    assert_eq!(table.fleet(), model.fleet(), "{}", at("fleet"));
    assert_eq!(table.session_ids(), model.session_ids(), "{}", at("ids"));
    for id in 0..IDS {
        assert_eq!(
            normalized(table.stats(id)),
            normalized(model.stats(id)),
            "{}",
            at(&format!("stats({id})"))
        );
        assert_eq!(table.rollups(id), model.rollups(id), "{}", at("rollups"));
    }
    // Rowids some retained session holds: a cursor at one of them lands
    // inside (or at the end of) that session's range.
    let held: Vec<u64> = model
        .sessions
        .values()
        .filter_map(|s| s.history.as_ref())
        .flat_map(|h| h.rows.iter().map(|(rowid, _)| *rowid))
        .collect();
    for kind in [QueryKind::Verdicts, QueryKind::Events, QueryKind::Outcomes] {
        for mut q in filters(rng) {
            q.kind = kind;
            q.limit = rng.below(4) as usize;
            // Every page from the start.
            loop {
                let page = table.query(&q);
                let want = model.query(&q);
                assert_eq!(page.items, want.items, "{}", at(&format!("{q:?}")));
                assert_eq!(
                    page.next_cursor,
                    want.next_cursor,
                    "{}",
                    at(&format!("{q:?}"))
                );
                match page.next_cursor {
                    Some(c) => q.cursor = Some(c),
                    None => break,
                }
            }
            // One cursor inside a session's range, one anywhere, and the
            // largest a client can send.
            let inside = (!held.is_empty()).then(|| held[rng.below(held.len() as u64) as usize]);
            let anywhere = rng.below(model.next_rowid + 2);
            for cursor in inside.into_iter().chain([anywhere, u64::MAX]) {
                q.cursor = Some(cursor);
                let page = table.query(&q);
                let want = model.query(&q);
                assert_eq!(page.items, want.items, "{}", at(&format!("{q:?}")));
                assert_eq!(
                    page.next_cursor,
                    want.next_cursor,
                    "{}",
                    at(&format!("{q:?}"))
                );
            }
        }
    }
}

/// A session id: usually one the model holds in `state`, else any.
fn pick_id(rng: &mut Rng, model: &Model, state: SessionState) -> u64 {
    let mut ids: Vec<u64> = model
        .sessions
        .iter()
        .filter(|(_, s)| s.state == state)
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    if ids.is_empty() || rng.below(8) == 0 {
        rng.below(IDS)
    } else {
        ids[rng.below(ids.len() as u64) as usize]
    }
}

fn run(seed: u64, steps: usize) {
    let table = SessionTable::new(limits());
    let mut model = Model::new(limits());
    let mut rng = Rng(seed);
    let mut late = 0u64;
    for step in 0..steps {
        let op = match rng.below(20) {
            0..=3 => {
                let id = rng.below(IDS);
                let tenant = rng.pick(&TENANTS);
                let selection = SELECTIONS[rng.below(3) as usize];
                let configs = || {
                    selection
                        .iter()
                        .map(|c| ReplayConfig::parse(c).expect("config"))
                        .collect::<Vec<_>>()
                };
                // Single-config sessions with even ids are live; the
                // choice draws nothing from the seeded stream.
                let live = selection.len() == 1 && id.is_multiple_of(2);
                assert_eq!(
                    table.open(id, tenant, configs(), live),
                    model.open(id, tenant, configs(), live),
                    "step {step}: open {id}"
                );
                "open"
            }
            4..=5 => {
                let id = pick_id(&mut rng, &model, SessionState::Open);
                let chunk: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
                let admitted = table.admit(id, chunk.len() as u64);
                assert_eq!(admitted, model.admit(id, &chunk), "step {step}: admit {id}");
                if admitted.is_ok() {
                    let pending = model.pending(id);
                    table.settle(id, pending);
                    model.settle(id, pending);
                }
                "append"
            }
            6..=9 => {
                let id = pick_id(&mut rng, &model, SessionState::Open);
                let uploaded = model.sessions.get(&id).map_or(&[][..], |s| &s.uploaded);
                let (mut len, mut sum) = (uploaded.len() as u64, fnv1a(uploaded));
                match rng.below(12) {
                    0 => len += 1,
                    1 => sum ^= 1,
                    _ => {}
                }
                let declared = model.declared(id, len, sum);
                assert_eq!(
                    table.seal(id, declared.clone()),
                    model.seal(id, declared),
                    "step {step}: seal {id}"
                );
                "seal"
            }
            10..=15 => {
                let id = pick_id(&mut rng, &model, SessionState::Queued);
                let got = table.begin_judging(id);
                let want = model.begin_judging(id);
                assert_eq!(got, want, "step {step}: begin_judging {id}");
                let Some(tenant) = want else {
                    check(&table, &model, &mut rng, step, "begin_judging");
                    continue;
                };
                // Sometimes the session is quarantined or failed while
                // it judges; the late output must then be discarded.
                match rng.below(8) {
                    0 => {
                        table.quarantine(id, "stream corrupt while judging");
                        model.poison(id, "stream corrupt while judging");
                        late += 1;
                    }
                    1 => {
                        table.fail(id, "replay failed");
                        model.poison(id, "replay failed");
                        late += 1;
                    }
                    _ => {}
                }
                let out = judge_output(&mut rng, id, &tenant);
                table.finish(id, out.clone());
                model.finish(id, out);
                "judge"
            }
            16 => {
                let id = pick_id(&mut rng, &model, SessionState::Open);
                assert_eq!(
                    table.abort(id, "client gone"),
                    model.abort(id, "client gone"),
                    "step {step}: abort {id}"
                );
                "abort"
            }
            17 => {
                let id = rng.below(IDS);
                table.quarantine(id, "corrupt frame stream");
                model.poison(id, "corrupt frame stream");
                "quarantine"
            }
            _ => {
                let id = pick_id(&mut rng, &model, SessionState::Queued);
                table.fail(id, "unreadable trace");
                model.poison(id, "unreadable trace");
                "fail"
            }
        };
        check(&table, &model, &mut rng, step, op);
    }
    // The mix must actually exercise what the indexes replace.
    let fleet = model.fleet();
    assert!(fleet.judged > 60, "seed {seed}: {fleet:?}");
    assert!(fleet.purged_sessions > 40, "seed {seed}: {fleet:?}");
    assert!(fleet.evicted_sessions > 150, "seed {seed}: {fleet:?}");
    assert!(late > 5, "seed {seed}: {late} late outputs");
    assert!(fleet.streamed_sessions > 10, "seed {seed}: {fleet:?}");
}

#[test]
fn store_matches_reference_model_seed_1() {
    run(1, 3000);
}

#[test]
fn store_matches_reference_model_seed_2() {
    run(2, 3000);
}

#[test]
fn store_matches_reference_model_seed_3() {
    run(3, 3000);
}
