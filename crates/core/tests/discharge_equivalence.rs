//! Discharge soundness, pinned end to end: for every machine of the
//! Jinn suite and the bench workload mix's manifest, an engine compiled
//! with the discharge pass's elided transitions must produce the exact
//! same outcome transcript — and therefore the same verdict multiset —
//! as the fully compiled engine, on any event stream the workload can
//! actually produce (i.e. any stream over the *non*-discharged
//! transitions). This is the property that makes eliding transitions an
//! optimization and not a behaviour change.

use std::collections::BTreeMap;
use std::sync::Arc;

use jinn_core::{discharge, WorkloadManifest};
use jinn_fsm::{CompiledMachine, CompiledStore, Engine, TransitionId};

/// The Table 3 mix — kept textually in sync with
/// `jinn_workloads::TABLE3_CALLED_FUNCTIONS` (the workloads crate pins
/// that constant against the recorded workload, and depends on this
/// crate, so the list is duplicated here).
const BENCH_MIX: [&str; 18] = [
    "CallIntMethodA",
    "DeleteGlobalRef",
    "DeleteLocalRef",
    "GetFieldID",
    "GetIntArrayRegion",
    "GetIntField",
    "GetMethodID",
    "GetObjectClass",
    "GetStringUTFChars",
    "GetStringUTFLength",
    "IsSameObject",
    "NewGlobalRef",
    "NewIntArray",
    "NewLocalRef",
    "NewStringUTF",
    "ReleaseStringUTFChars",
    "SetIntArrayRegion",
    "SetIntField",
];

/// Deterministic stream source (no external RNG dependency needed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }
}

/// A multiset of error-state entries: error state name → count. Two
/// engines with equal maps produced the same verdicts, regardless of
/// which entities hit them in which order.
fn verdict_multiset(outcomes: &[jinn_fsm::TransitionOutcome]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for o in outcomes {
        if let Some(err) = o.error() {
            *m.entry(err.state.to_string()).or_default() += 1;
        }
    }
    m
}

#[test]
fn discharged_engines_match_full_engines_on_workload_streams() {
    let machines = jinn_spec::machines();
    let manifest = WorkloadManifest::new("table3-mix", BENCH_MIX);
    let report = discharge(&machines, &manifest);
    assert!(report.unknown_functions.is_empty());
    assert!(report.total_discharged() > 0, "the mix must discharge work");

    let mut rng = Lcg(0x5eed_1234_abcd_0001);
    for spec in &machines {
        let elided: Vec<TransitionId> = report.elided_for(spec.name());
        let live: Vec<TransitionId> = spec
            .transitions()
            .iter()
            .filter_map(|t| spec.transition_id(t.name()))
            .filter(|id| !elided.contains(id))
            .collect();

        let mut full = CompiledStore::<u64>::new(spec.clone());
        let mut discharged = CompiledStore::<u64>::with_compiled(Arc::new(
            CompiledMachine::compile_discharged(spec.clone(), &elided),
        ));

        // A workload that cannot call a transition's triggers cannot
        // emit that transition: streams draw from `live` only. Inactive
        // machines have no live transitions and hence no stream — the
        // equivalence is vacuous there, which is exactly why the whole
        // machine can be skipped at check time.
        let mut full_outcomes = Vec::new();
        let mut discharged_outcomes = Vec::new();
        for _ in 0..if live.is_empty() { 0 } else { 2_000 } {
            let key = rng.next() % 24;
            let t = live[(rng.next() as usize) % live.len()];
            full_outcomes.push(full.apply(&key, t));
            discharged_outcomes.push(discharged.apply(&key, t));
        }

        assert_eq!(
            full_outcomes,
            discharged_outcomes,
            "machine `{}`: full and discharged transcripts must agree",
            spec.name()
        );
        assert_eq!(
            verdict_multiset(&full_outcomes),
            verdict_multiset(&discharged_outcomes),
            "machine `{}`: verdict multisets must agree",
            spec.name()
        );
        assert_eq!(full.len(), discharged.len(), "machine `{}`", spec.name());
        assert_eq!(
            full.entities_not_in(spec.initial()),
            discharged.entities_not_in(spec.initial()),
            "machine `{}`: leak sweeps must agree",
            spec.name()
        );
    }
}

/// On the discharged engine, an elided transition is pure
/// `NotApplicable` from *every* state — even states where the full
/// machine would have moved. This is the compiled form of the
/// discharge proof, and the reason eliding is only sound when the
/// workload can never emit the transition.
#[test]
fn elided_transitions_are_inert_from_every_state() {
    let machines = jinn_spec::machines();
    let manifest = WorkloadManifest::new("table3-mix", BENCH_MIX);
    let report = discharge(&machines, &manifest);

    let monitor = machines
        .iter()
        .find(|m| m.name() == "monitor")
        .expect("suite has a monitor machine");
    let elided = report.elided_for("monitor");
    assert!(!elided.is_empty());
    let mut store = CompiledStore::<u64>::with_compiled(Arc::new(
        CompiledMachine::compile_discharged(monitor.clone(), &elided),
    ));
    for &t in &elided {
        let out = store.apply(&7, t);
        assert!(
            matches!(out, jinn_fsm::TransitionOutcome::NotApplicable { .. }),
            "elided `{}` must be inert, got {out:?}",
            monitor.transitions()[t.index()].name()
        );
    }
    assert_eq!(verdict_multiset(&[]), BTreeMap::new());
}
