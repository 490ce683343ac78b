//! The one judge path: from a session's decoded records to the history
//! rows it contributes to the store.
//!
//! Every session's [`Judge`] routes its setup records into a setup
//! section and folds each event record into one replay feed per config
//! as the record decodes: a live session's at each `Append`, a retained
//! session's when a worker takes it, and [`judge_trace`]'s from a parsed
//! trace. Judging replays every config on its finished feed
//! ([`jinn_replay::run_live_replay`], the one replay fold), the first
//! with a live [`Recorder`] wired in so the re-judged execution's events
//! can be summarized for the query API. One function,
//! [`Judge::judge`], builds the [`JudgeOutput`].
//!
//! The first config's recorded FSM-transition stream is also re-applied
//! through fresh [`CompiledStore`] engines to produce per-machine entity
//! rollups. The daemon's [`EnginePool`] compiles the spec machines once;
//! each [`rollup_events`] call leases one new, empty engine per machine
//! over those tables, owned by the calling worker alone.
//!
//! [`CompiledStore`]: jinn_fsm::CompiledStore

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use jinn_fsm::{Engine, EnginePool, MachineSpec, TransitionOutcome};
use jinn_obs::{EventKind, Recorder, TraceEvent};
use jinn_replay::{
    run_live_replay, EventFeed, LiveFeeder, ReplayConfig, ReplayOutcome, StreamDecoder, Trace,
    TraceError, TraceRecord,
};

use crate::session::{
    DischargeStats, EventSummary, MachineRollup, ObsCounters, OutcomeRec, SessionId, VerdictRec,
};
use crate::streaming::contain;

/// Everything one judged session contributes to the store.
#[derive(Debug, Clone)]
pub struct JudgeOutput {
    /// The traced program's name.
    pub program: String,
    /// Per-config overall outcome.
    pub outcomes: Vec<OutcomeRec>,
    /// Every checker violation, per config, in detection order.
    pub verdicts: Vec<VerdictRec>,
    /// Event summaries from the first config's recorder (newest
    /// `max_events`).
    pub events: Vec<EventSummary>,
    /// Re-judged events beyond the summary cap.
    pub events_dropped: u64,
    /// Per-machine rollups from the re-applied transition stream: the
    /// first config's recorder ring, so a session that records more
    /// than `recorder_ring` events rolls up only the newest of them.
    pub rollups: Vec<MachineRollup>,
    /// Recorder coverage of the *recorded* trace (its `obs.*` meta).
    pub obs: ObsCounters,
    /// Static-discharge audit against the trace's own call-site set.
    pub discharge: DischargeStats,
    /// Total JNI calls re-issued across configs.
    pub events_replayed: u64,
    /// Total replay divergences across configs.
    pub divergences: u64,
    /// Whether the trace called a function outside its tenant's
    /// declared manifest (an audit flag; see the `manifest` module).
    pub outside_manifest: bool,
}

/// The spec machines the discharge audit runs against, built once per
/// process: they never change, and building them costs about as much
/// as the audit itself.
pub(crate) fn audit_machines() -> &'static [MachineSpec] {
    static MACHINES: OnceLock<Vec<MachineSpec>> = OnceLock::new();
    MACHINES.get_or_init(jinn_spec::machines)
}

/// The static-discharge audit row for one trace, from the call-site
/// set its judge accumulates as records route, so the events are never
/// walked again.
fn discharge_stats(program: &str, called: &BTreeSet<String>) -> DischargeStats {
    let manifest = jinn_core::WorkloadManifest::new(program, called.iter().map(String::as_str));
    let report = jinn_core::discharge(audit_machines(), &manifest);
    DischargeStats {
        called_functions: report.manifest_functions as u64,
        total_transitions: report.total_transitions() as u64,
        discharged: report.total_discharged() as u64,
        inactive_machines: report
            .inactive_machines()
            .iter()
            .map(|m| m.to_string())
            .collect(),
    }
}

fn summarize(session: SessionId, ev: &TraceEvent) -> EventSummary {
    let (label, function, machine, entity, failed) = match &ev.kind {
        EventKind::JniEnter { func } => ("jni-enter", Some(func.to_string()), None, None, false),
        EventKind::JniExit { func, failed, .. } => {
            ("jni-exit", Some(func.to_string()), None, None, *failed)
        }
        EventKind::NativeEnter { method } => {
            ("native-enter", Some(method.to_string()), None, None, false)
        }
        EventKind::NativeExit { method, failed, .. } => {
            ("native-exit", Some(method.to_string()), None, None, *failed)
        }
        EventKind::FsmTransition {
            machine,
            outcome,
            entity,
            ..
        } => (
            "fsm-transition",
            None,
            Some(machine.to_string()),
            entity.as_ref().map(|e| e.0.to_string()),
            matches!(outcome, jinn_obs::FsmOutcome::Error),
        ),
        EventKind::GcSafepoint { .. } => ("gc-safepoint", None, None, None, false),
        EventKind::Gc { .. } => ("gc", None, None, None, false),
        EventKind::PinAcquire { .. } => ("pin-acquire", None, None, None, false),
        EventKind::PinRelease { ok, .. } => ("pin-release", None, None, None, !*ok),
        EventKind::Verdict {
            machine, function, ..
        } => (
            "verdict",
            Some(function.to_string()),
            Some(machine.to_string()),
            None,
            true,
        ),
    };
    EventSummary {
        session,
        index: ev.seq,
        thread: ev.thread,
        label: label.to_string(),
        function,
        machine,
        entity,
        failed,
    }
}

/// Re-applies the session's transition stream through fresh engines
/// leased from `pool`, producing one rollup per machine that saw
/// traffic. The judge passes the first config's recorder events, which
/// hold only the newest `recorder_ring` (1024 by default): the rollups
/// of a longer session count its tail, not its whole stream.
///
/// Re-exported at the crate root so benchmarks can drive the daemon's
/// exact rollup path.
///
/// Entity keys are dense *per machine*: each engine sees keys `0..n`
/// for its own entities, so a store's cell `Vec` tracks the machine's
/// entity count, not the session-global one. Transitions the spec
/// machine does not recognise are tallied as `unknown_transitions`
/// instead of inflating the applied count.
pub fn rollup_events(pool: &EnginePool<u64>, events: &[TraceEvent]) -> Vec<MachineRollup> {
    let mut lease = pool.lease();
    // Hoisted once per judge call: machine name -> engine index. The
    // per-event linear scan this replaces cost O(machines) per
    // transition.
    let index_of: HashMap<String, usize> = lease
        .iter()
        .enumerate()
        .map(|(i, e)| (e.spec().name().to_string(), i))
        .collect();
    let mut keys: HashMap<(usize, String), u64> = HashMap::new();
    let mut next_key: Vec<u64> = vec![0; lease.len()];
    // machine -> (applied, errors, unknown)
    let mut counts: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for ev in events {
        let EventKind::FsmTransition {
            machine,
            transition,
            entity: Some(entity),
            ..
        } = &ev.kind
        else {
            continue;
        };
        let Some(&idx) = index_of.get(&**machine) else {
            continue;
        };
        let key = *keys.entry((idx, entity.0.to_string())).or_insert_with(|| {
            let k = next_key[idx];
            next_key[idx] += 1;
            k
        });
        let entry = counts.entry(machine.to_string()).or_default();
        match lease[idx].try_apply_named(&key, transition) {
            Ok(o) => {
                entry.0 += 1;
                if matches!(o, TransitionOutcome::Error(_)) {
                    entry.1 += 1;
                }
            }
            Err(_) => entry.2 += 1,
        }
    }
    let mut out: Vec<MachineRollup> = counts
        .into_iter()
        .map(|(machine, (transitions, errors, unknown_transitions))| {
            let entities = index_of
                .get(machine.as_str())
                .map_or(0, |&i| lease[i].len() as u64);
            MachineRollup {
                machine,
                transitions,
                entities,
                errors,
                unknown_transitions,
            }
        })
        .collect();
    out.sort_by(|a, b| a.machine.cmp(&b.machine));
    out
}

/// One session's judge, and the only path from decoded records to a
/// [`JudgeOutput`]: every [`StreamingSession`] owns one, and
/// [`judge_trace`] feeds one a parsed trace.
///
/// Setup records go into [`Judge::setup`]; each event record is folded
/// into one [`EventFeed`] per config. The first config replays with the
/// recorder wired in, on an executor thread while a live upload is
/// still arriving ([`Judge::overlap`]) or inline at judging; every other
/// config replays inline at judging, one after another.
///
/// [`StreamingSession`]: crate::streaming::StreamingSession
pub(crate) struct Judge {
    /// The trace's setup section, plus any trailing `obs.*` metadata.
    /// Event records go to the feeds and are not retained.
    setup: Trace,
    saw_event: bool,
    /// The call-site set, accumulated record by record for the manifest
    /// and discharge audits.
    called: BTreeSet<String>,
    /// One replay per config, in selection order.
    replays: Vec<Replay>,
    /// The first config's recorder.
    recorder: Recorder,
    /// The first config's replay thread, spawned only while the upload
    /// is still arriving; `None` means it replays inline at judging.
    executor: Option<JoinHandle<Result<ReplayOutcome, TraceError>>>,
    decode_error: Option<TraceError>,
    /// A structurally invalid event; feeding stopped at it.
    replay_error: Option<TraceError>,
}

/// One config's replay input.
struct Replay {
    config: ReplayConfig,
    feed: Arc<EventFeed>,
    feeder: LiveFeeder,
}

impl Judge {
    /// A judge for `configs` (at least one) with a recorder of
    /// `recorder_ring` events for the first.
    pub(crate) fn new(configs: &[ReplayConfig], recorder_ring: usize) -> Judge {
        let replays = configs
            .iter()
            .map(|&config| {
                let feed = Arc::new(EventFeed::new());
                Replay {
                    config,
                    feeder: LiveFeeder::new(Arc::clone(&feed)),
                    feed,
                }
            })
            .collect();
        Judge {
            setup: Trace::empty(0),
            saw_event: false,
            called: BTreeSet::new(),
            replays,
            recorder: Recorder::enabled(recorder_ring),
            executor: None,
            decode_error: None,
            replay_error: None,
        }
    }

    /// The first config's label, which names the session's replay
    /// failures and panics.
    pub(crate) fn label(&self) -> String {
        self.replays[0].config.label()
    }

    /// Routes every record `decoder` can decode now.
    pub(crate) fn drain(&mut self, decoder: &mut StreamDecoder) {
        loop {
            match decoder.next_record() {
                // Past a decode error nothing is judged; later records
                // are decoded only to release their bytes.
                Ok(Some(rec)) if self.decode_error.is_none() => self.route(rec),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    self.fail_decode(e);
                    break;
                }
            }
        }
        self.setup.version = decoder.version();
    }

    /// Drains the rest of the stream, runs the decoder's end-of-stream
    /// verification (missing `End`, trailing bytes — batch error parity)
    /// and finishes every feed.
    pub(crate) fn close(&mut self, decoder: &mut StreamDecoder) {
        self.drain(decoder);
        if self.decode_error.is_none() {
            if let Err(e) = decoder.finish() {
                self.decode_error = Some(e);
            }
        }
        self.finish_feeds();
    }

    fn finish_feeds(&self) {
        for replay in &self.replays {
            replay.feed.finish();
        }
    }

    fn fail_decode(&mut self, e: TraceError) {
        if self.decode_error.is_none() {
            self.decode_error = Some(e);
            // Nothing past a decode error can be judged; unblock the
            // executor now.
            self.finish_feeds();
        }
    }

    fn route(&mut self, rec: TraceRecord) {
        match self.setup.absorb_setup(rec, self.saw_event) {
            Ok(Some(event)) => self.push_event(&event),
            Ok(None) => {}
            Err(e) => self.fail_decode(e),
        }
    }

    fn push_event(&mut self, event: &TraceRecord) {
        self.saw_event = true;
        if let TraceRecord::JniEnter { func, .. } = event {
            let name = minijni::FuncId(*func).name();
            if !self.called.contains(name) {
                self.called.insert(name.to_string());
            }
        }
        if self.replay_error.is_none() {
            let pushed = self
                .replays
                .iter_mut()
                .try_for_each(|r| r.feeder.push(event));
            if let Err(e) = pushed {
                self.replay_error = Some(e);
                self.finish_feeds();
            }
        }
    }

    /// Spawns the first config's executor once events are in while the
    /// upload is still arriving (`upload_done` false), so replay overlaps
    /// the rest of the upload. Only once the first event has arrived is
    /// the setup section known complete (a later setup record is a
    /// decode error).
    pub(crate) fn overlap(&mut self, session: SessionId, upload_done: bool) {
        if upload_done
            || self.executor.is_some()
            || !self.saw_event
            || self.decode_error.is_some()
            || self.replay_error.is_some()
        {
            return;
        }
        let setup = self.setup.clone();
        let config = self.replays[0].config;
        let recorder = self.recorder.clone();
        let feed = Arc::clone(&self.replays[0].feed);
        let handle = std::thread::Builder::new()
            .name(format!("jinn-serve-stream-{session}"))
            .spawn(move || run_live_replay(&setup, &config, Some(&recorder), &feed))
            .expect("spawn streaming executor");
        self.executor = Some(handle);
    }

    /// Whether the first config replays on an executor thread.
    #[cfg(test)]
    pub(crate) fn has_executor(&self) -> bool {
        self.executor.is_some()
    }

    /// Tears the judge down without judging: finishes every feed so a
    /// running executor drains and exits, and drops its result.
    pub(crate) fn discard(&mut self) {
        self.finish_feeds();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }

    /// Judges the session once its feeds are finished: joins the first
    /// config's executor, or replays that config inline with the
    /// recorder, then replays every other config inline, and builds the
    /// session's rows. A panic on the executor is contained and counted
    /// in `panics`.
    ///
    /// # Errors
    ///
    /// A quarantine reason: `unreadable trace: …` for a decode error
    /// (it wins over a replay error), `replay under … failed: …` for a
    /// structurally impossible replay (an invalid event names the first
    /// config), `replay under … panicked` for a contained executor panic.
    pub(crate) fn judge(
        &mut self,
        session: SessionId,
        tenant: &str,
        manifest: Option<&BTreeSet<String>>,
        pool: &EnginePool<u64>,
        max_events: usize,
        panics: &AtomicU64,
    ) -> Result<JudgeOutput, String> {
        if let Some(e) = &self.decode_error {
            return Err(format!("unreadable trace: {e}"));
        }
        let label = self.label();
        let joined = self
            .executor
            .take()
            .map(|h| contain(h.join(), &label, panics));
        if let Some(e) = self.replay_error.take() {
            return Err(format!("replay under {label} failed: {e}"));
        }
        let mut first = joined.transpose()?;
        let mut outcomes = Vec::with_capacity(self.replays.len());
        for (i, r) in self.replays.iter().enumerate() {
            let replayed = first.take().unwrap_or_else(|| {
                let recorder = (i == 0).then_some(&self.recorder);
                run_live_replay(&self.setup, &r.config, recorder, &r.feed)
            });
            let outcome =
                replayed.map_err(|e| format!("replay under {} failed: {e}", r.config.label()))?;
            outcomes.push(outcome);
        }
        let all = self.recorder.events();
        let skip = all.len().saturating_sub(max_events);
        let dropped = self.setup.meta_value("obs.dropped");
        Ok(JudgeOutput {
            program: self.setup.program().to_string(),
            verdicts: outcomes
                .iter()
                .flat_map(|o| {
                    o.violations.iter().map(|v| VerdictRec {
                        session,
                        tenant: tenant.to_string(),
                        config: o.label.clone(),
                        machine: v.machine.to_string(),
                        error_state: v.error_state.to_string(),
                        function: v.function.clone(),
                        message: v.message.clone(),
                    })
                })
                .collect(),
            events_replayed: outcomes.iter().map(|o| o.events_replayed).sum(),
            divergences: outcomes.iter().map(|o| o.divergences).sum(),
            outcomes: outcomes
                .into_iter()
                .map(|o| OutcomeRec {
                    session,
                    config: o.label,
                    behavior: o.behavior.to_string(),
                    message: o.message,
                    events_replayed: o.events_replayed,
                    divergences: o.divergences,
                })
                .collect(),
            events: all[skip..].iter().map(|e| summarize(session, e)).collect(),
            events_dropped: self.recorder.dropped_events() + skip as u64,
            rollups: rollup_events(pool, &all),
            obs: ObsCounters {
                dropped: dropped.and_then(|v| v.parse().ok()).unwrap_or(0),
            },
            discharge: discharge_stats(self.setup.program(), &self.called),
            outside_manifest: manifest.is_some_and(|declared| !self.called.is_subset(declared)),
        })
    }
}

/// Re-judges one parsed trace under each of its session's configs: the
/// session's own [`Judge`], fed the trace's setup section and events
/// instead of a decoder.
///
/// `manifest` is the tenant's declared call-site set, if it declared
/// one: a trace that calls outside it is flagged
/// (`JudgeOutput::outside_manifest`). Verdicts and rollups never depend
/// on it.
///
/// # Errors
///
/// A quarantine reason: a replay was structurally impossible. The
/// caller poisons the session.
#[allow(clippy::too_many_arguments)]
pub fn judge_trace(
    trace: &Trace,
    session: SessionId,
    tenant: &str,
    configs: &[ReplayConfig],
    pool: &EnginePool<u64>,
    manifest: Option<&BTreeSet<String>>,
    recorder_ring: usize,
    max_events: usize,
) -> Result<JudgeOutput, String> {
    let mut judge = Judge::new(configs, recorder_ring);
    judge.setup = Trace {
        meta: trace.meta.clone(),
        classes: trace.classes.clone(),
        threads: trace.threads.clone(),
        seeds: trace.seeds.clone(),
        events: Vec::new(),
        version: trace.version,
    };
    for event in &trace.events {
        judge.push_event(event);
    }
    judge.finish_feeds();
    judge.judge(
        session,
        tenant,
        manifest,
        pool,
        max_events,
        &AtomicU64::new(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use jinn_replay::{program_by_name, record_program};

    fn corpus_trace(name: &str) -> Trace {
        Trace::parse(&record_program(
            &program_by_name(name).expect("known program"),
        ))
        .expect("recording parses")
    }

    #[test]
    fn judging_figure1_yields_a_jinn_verdict() {
        let trace = corpus_trace("LocalRefDangling");
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let out = judge_trace(&trace, 9, "acme", &configs, &pool, None, 4096, 256).expect("judge");
        assert_eq!(out.program, "LocalRefDangling");
        assert!(!out.outside_manifest, "no manifest, nothing to flag");
        assert!(out.discharge.called_functions > 0, "call-site set audited");
        assert!(
            out.verdicts
                .iter()
                .any(|v| v.machine == "local-reference" && v.session == 9),
            "expected a local-reference verdict: {:?}",
            out.verdicts
        );
        assert_eq!(out.outcomes.len(), 1);
        assert_eq!(out.outcomes[0].behavior, "exception");
        assert!(!out.events.is_empty(), "recorder summaries present");
        assert!(
            out.rollups.iter().any(|r| r.machine == "local-reference"),
            "rollups: {:?}",
            out.rollups
        );
    }

    #[test]
    fn summary_cap_keeps_newest_events() {
        let trace = corpus_trace("LocalRefDangling");
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let judge = |max_events| {
            judge_trace(&trace, 1, "t", &configs, &pool, None, 4096, max_events).expect("judge")
        };
        let (full, capped) = (judge(10_000), judge(4));
        assert_eq!(capped.events.len(), 4);
        assert_eq!(
            capped.events_dropped,
            full.events.len() as u64 - 4 + full.events_dropped
        );
        // The kept summaries are the newest ones.
        let tail: Vec<u64> = full.events[full.events.len() - 4..]
            .iter()
            .map(|e| e.index)
            .collect();
        let got: Vec<u64> = capped.events.iter().map(|e| e.index).collect();
        assert_eq!(got, tail);
    }

    fn fsm_event(seq: u64, machine: &str, transition: &str, entity: &str) -> TraceEvent {
        TraceEvent {
            seq,
            micros: seq,
            thread: 0,
            kind: EventKind::FsmTransition {
                machine: Arc::from(machine),
                transition: Arc::from(transition),
                outcome: jinn_obs::FsmOutcome::Moved,
                entity: Some(jinn_obs::EntityTag::new(entity)),
            },
        }
    }

    #[test]
    fn rollup_entities_are_dense_per_machine() {
        // Three global refs and one local ref, interleaved so a shared
        // counter would hand the local-reference engine key 2 instead
        // of 0. Per-machine Engine::len must equal each machine's OWN
        // distinct-entity count.
        let events = vec![
            fsm_event(0, "global-reference", "Acquire", "g0"),
            fsm_event(1, "global-reference", "Acquire", "g1"),
            fsm_event(2, "local-reference", "Acquire", "l0"),
            fsm_event(3, "global-reference", "Acquire", "g2"),
            fsm_event(4, "local-reference", "Release", "l0"),
        ];
        let pool = EnginePool::new(jinn_spec::machines());
        let rollups = rollup_events(&pool, &events);
        let by_name = |n: &str| {
            rollups
                .iter()
                .find(|r| r.machine == n)
                .unwrap_or_else(|| panic!("rollup for {n}: {rollups:?}"))
        };
        assert_eq!(by_name("global-reference").entities, 3);
        assert_eq!(by_name("local-reference").entities, 1);
        assert_eq!(by_name("local-reference").transitions, 2);
        assert_eq!(
            rollups.iter().map(|r| r.unknown_transitions).sum::<u64>(),
            0
        );
    }

    #[test]
    fn unrecognised_transitions_count_as_unknown_not_applied() {
        let events = vec![
            fsm_event(0, "global-reference", "Acquire", "g0"),
            fsm_event(1, "global-reference", "NoSuchTransition", "g0"),
            fsm_event(2, "local-reference", "Acquire", "l0"),
            fsm_event(3, "local-reference", "Release", "l0"),
            // The spec's own name applies; a condensed label does not.
            fsm_event(4, "local-reference", "UseAfterRelease", "l0"),
            fsm_event(5, "local-reference", "Use", "l0"),
        ];
        let pool = EnginePool::new(jinn_spec::machines());
        let rollups = rollup_events(&pool, &events);
        let global = rollups.iter().find(|r| r.machine == "global-reference");
        let global = global.expect("global rollup");
        assert_eq!(global.transitions, 1, "only the applied transition counts");
        assert_eq!(global.unknown_transitions, 1);
        let local = rollups.iter().find(|r| r.machine == "local-reference");
        let local = local.expect("local rollup");
        assert_eq!(local.transitions, 3, "UseAfterRelease applies");
        assert_eq!(local.unknown_transitions, 1, "\"Use\" is not a spec name");
        assert_eq!(local.errors, 1, "UseAfterRelease lands in an error state");
    }

    #[test]
    fn manifests_flag_without_changing_verdicts_or_rollups() {
        let trace = corpus_trace("LocalRefDangling");
        let pool = EnginePool::new(jinn_spec::machines());
        let configs = vec![ReplayConfig::parse("jinn").unwrap()];
        let judge = |manifest: Option<&BTreeSet<String>>| {
            judge_trace(&trace, 1, "t", &configs, &pool, manifest, 4096, 256).expect("judge")
        };
        let baseline = judge(None);
        assert!(!baseline.outside_manifest);

        let covering = trace.called_functions();
        let honest = judge(Some(&covering));
        assert!(
            !honest.outside_manifest,
            "a covering manifest is not flagged"
        );

        let lying: BTreeSet<String> = ["GetVersion".to_string()].into();
        let liar = judge(Some(&lying));
        assert!(liar.outside_manifest, "a lying manifest is flagged");

        // The manifest never changes a verdict, an outcome, an event
        // summary or a rollup.
        let rows = |o: &JudgeOutput| {
            format!(
                "{:?} {:?} {:?} {:?} {:?}",
                o.verdicts, o.outcomes, o.events, o.rollups, o.discharge
            )
        };
        assert_eq!(rows(&honest), rows(&baseline));
        assert_eq!(rows(&liar), rows(&baseline));
    }
}
