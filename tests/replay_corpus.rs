//! Golden-corpus integration test: every checked-in `.jtrace` under
//! `tests/corpus/` replays to the same Table 1 verdicts as a live run,
//! under Jinn and both vendors' `-Xcheck:jni` models.
//!
//! Regenerate the corpus with
//! `cargo run --release -p jinn-bench --bin replay -- record --verify`.

use jinn::microbench::{run_scenario, scenarios, Behavior, Config};
use jinn::replay::{
    case_studies, check_version, diff_trace, program_names, replay_trace, standard_configs, Trace,
    FORMAT_VERSION,
};
use jinn::vendors::Vendor;

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/corpus/{name}.jtrace", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{path}: {e} — regenerate with \
             `cargo run -p jinn-bench --bin replay -- record --verify`"
        )
    })
}

#[test]
fn corpus_is_complete_and_validates() {
    for name in program_names() {
        let bytes = corpus_bytes(&name);
        assert_eq!(
            check_version(&bytes).unwrap(),
            FORMAT_VERSION,
            "{name}: corpus format drifted"
        );
        let trace = Trace::parse(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace.program(), name);
        assert!(!trace.events.is_empty(), "{name}: empty event stream");
    }
}

/// The heart of the satellite: for all sixteen microbenchmarks and all
/// five standard configurations, the verdict replayed from the corpus
/// trace equals the verdict of a live run — cell for cell, the whole
/// Table 1 matrix from recordings alone. One config value drives both
/// the live run and the replay.
#[test]
fn replayed_matrix_matches_live_matrix() {
    for scenario in scenarios() {
        let trace = Trace::parse(&corpus_bytes(&scenario.name)).expect("corpus parses");
        for config in standard_configs() {
            let live = run_scenario(&scenario, config);
            let replayed = replay_trace(&trace, &config).expect("corpus replays");
            assert_eq!(
                replayed.behavior,
                live.behavior,
                "{} under {}: live {:?} vs replayed {:?}\n  live: {:?}\n  replayed: {:?}",
                scenario.name,
                config.label(),
                live.behavior,
                replayed.behavior,
                live.message,
                replayed.message
            );
        }
    }
}

/// The Section 6.4 case studies: Jinn diagnoses each recorded bug from
/// the trace alone, while the default HotSpot stack lets it pass or die
/// undiagnosed — never with a Jinn diagnosis.
#[test]
fn case_study_traces_are_diagnosed_by_jinn_only() {
    for p in case_studies() {
        let trace = Trace::parse(&corpus_bytes(&p.name)).expect("corpus parses");
        let jinn = replay_trace(&trace, &Config::Jinn(Vendor::HotSpot)).unwrap();
        assert_eq!(
            jinn.behavior,
            Behavior::JinnException,
            "{}: Jinn must diagnose the recorded bug: {jinn:?}",
            p.name
        );
        let hs = replay_trace(&trace, &Config::Default(Vendor::HotSpot)).unwrap();
        assert_ne!(
            hs.behavior,
            Behavior::JinnException,
            "{}: a bare vendor cannot produce a Jinn diagnosis",
            p.name
        );
    }
}

/// Figure 9 from the corpus file: the pending-exception trace makes
/// HotSpot `-Xcheck` warn, J9 `-Xcheck` abort, and Jinn throw — a
/// three-way disagreement reproduced without re-running the program.
#[test]
fn exception_state_corpus_shows_figure9_disagreement() {
    let trace = Trace::parse(&corpus_bytes("ExceptionState")).expect("corpus parses");
    let report = diff_trace(
        &trace,
        &[
            Config::Xcheck(Vendor::HotSpot),
            Config::Xcheck(Vendor::J9),
            Config::Jinn(Vendor::HotSpot),
        ],
    )
    .unwrap();
    assert_eq!(report.outcomes[0].behavior, Behavior::Warning);
    assert_eq!(report.outcomes[1].behavior, Behavior::Error);
    assert_eq!(report.outcomes[2].behavior, Behavior::JinnException);
    assert_eq!(report.distinct_behaviors(), 3, "{}", report.render());
}
