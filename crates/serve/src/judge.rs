//! The worker side of ingest: re-judge a sealed session's decoded trace
//! under the session's checker stack, and condense the results into
//! history rows for the store.
//!
//! One replay per configuration; the first configuration runs with a
//! live [`Recorder`] wired in ([`jinn_replay::replay_trace_observed`])
//! so the re-judged execution's events can be summarized for the query
//! API. The session's FSM-transition stream is additionally re-applied
//! through fresh [`CompiledStore`] engines to produce per-machine entity
//! rollups. The daemon's [`EnginePool`] compiles the spec machines once;
//! each [`rollup_events`] call leases one new, empty engine per machine
//! over those tables, owned by the calling worker alone. A live
//! session's executor publishes through the same row helpers.
//!
//! [`CompiledStore`]: jinn_fsm::CompiledStore

use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use jinn_fsm::{Engine, EnginePool, MachineSpec, TransitionOutcome};
use jinn_obs::{EventKind, Recorder, TraceEvent};
use jinn_replay::{replay_trace, replay_trace_observed, ReplayConfig, ReplayOutcome, Trace};

use crate::session::{
    DischargeStats, EventSummary, MachineRollup, ObsCounters, OutcomeRec, SessionId, VerdictRec,
};

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
    /// Per-machine rollups from the re-applied transition stream.
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

/// Reads the recorded trace's `obs.*` metadata (written by
/// `jinn_replay::append_obs_events` at record time).
pub fn obs_counters(trace: &Trace) -> ObsCounters {
    let num = |key: &str| {
        trace
            .meta_value(key)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ObsCounters {
        dropped: num("obs.dropped"),
    }
}

/// The spec machines the discharge audit runs against, built once per
/// process: they never change, and building them costs about as much
/// as the audit itself.
pub(crate) fn audit_machines() -> &'static [MachineSpec] {
    static MACHINES: OnceLock<Vec<MachineSpec>> = OnceLock::new();
    MACHINES.get_or_init(jinn_spec::machines)
}

/// The static-discharge audit row for one trace. Takes the trace's
/// call-site set precomputed so callers that already hold one
/// ([`judge_trace`] computes it for the manifest audit too; a live
/// session accumulates it during ingest) never walk the events again.
pub(crate) fn discharge_stats(program: &str, called: &BTreeSet<String>) -> DischargeStats {
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

/// Whether a trace's call-site set `called` leaves the tenant's
/// declared `manifest`. A tenant that declared nothing is never flagged.
pub(crate) fn outside_manifest(
    manifest: Option<&BTreeSet<String>>,
    called: &BTreeSet<String>,
) -> bool {
    manifest.is_some_and(|declared| !called.is_subset(declared))
}

/// Re-applies the session's transition stream through fresh engines
/// leased from `pool`, producing one rollup per machine that saw
/// traffic.
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

/// Adds one config's replay to `out`: its outcome row, its verdict
/// rows, and its replay counters. Shared by [`judge_trace`] and live
/// sessions, so both publish the same rows.
pub(crate) fn push_replay_rows(
    session: SessionId,
    tenant: &str,
    config: &ReplayConfig,
    outcome: &ReplayOutcome,
    out: &mut JudgeOutput,
) {
    let label = config.label();
    out.events_replayed += outcome.events_replayed;
    out.divergences += outcome.divergences;
    out.verdicts
        .extend(outcome.violations.iter().map(|v| VerdictRec {
            session,
            tenant: tenant.to_string(),
            config: label.clone(),
            machine: v.machine.to_string(),
            error_state: v.error_state.to_string(),
            function: v.function.clone(),
            message: v.message.clone(),
        }));
    out.outcomes.push(OutcomeRec {
        session,
        config: label,
        behavior: outcome.behavior.to_string(),
        message: outcome.message.clone(),
        events_replayed: outcome.events_replayed,
        divergences: outcome.divergences,
    });
}

/// The recorder's share of a judged session: the newest `max_events`
/// event summaries, the count of events beyond them (ring drops
/// included), and the per-machine rollups on a lease from `pool`.
/// Shared by [`judge_trace`] and live sessions.
pub(crate) fn recorder_rows(
    session: SessionId,
    recorder: &Recorder,
    pool: &EnginePool<u64>,
    max_events: usize,
) -> (Vec<EventSummary>, u64, Vec<MachineRollup>) {
    let all = recorder.events();
    let rollups = rollup_events(pool, &all);
    let skip = all.len().saturating_sub(max_events);
    let dropped = recorder.dropped_events() + skip as u64;
    let events = all
        .iter()
        .skip(skip)
        .map(|e| summarize(session, e))
        .collect();
    (events, dropped, rollups)
}

/// Re-judges one decoded trace under each of its session's configs.
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
    let called = trace.called_functions();
    let mut out = JudgeOutput {
        program: trace.program().to_string(),
        outcomes: Vec::with_capacity(configs.len()),
        verdicts: Vec::new(),
        events: Vec::new(),
        events_dropped: 0,
        rollups: Vec::new(),
        obs: obs_counters(trace),
        discharge: discharge_stats(trace.program(), &called),
        events_replayed: 0,
        divergences: 0,
        outside_manifest: outside_manifest(manifest, &called),
    };
    for (i, config) in configs.iter().enumerate() {
        let recorder = (i == 0).then(|| Recorder::enabled(recorder_ring));
        let outcome = match &recorder {
            Some(rec) => replay_trace_observed(trace, config, rec),
            None => replay_trace(trace, config),
        }
        .map_err(|e| format!("replay under {} failed: {e}", config.label()))?;
        push_replay_rows(session, tenant, config, &outcome, &mut out);
        if let Some(rec) = recorder {
            (out.events, out.events_dropped, out.rollups) =
                recorder_rows(session, &rec, pool, max_events);
        }
    }
    Ok(out)
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
