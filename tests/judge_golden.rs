//! Golden pin of the judge's output over the committed corpus.
//!
//! `judge_trace` re-judges every `tests/corpus/*.jtrace` under `jinn`
//! and under `jinn,xcheck,hotspot`, and the rendered rollup rows,
//! verdicts (triple and message), outcome behaviours and event-summary
//! count must equal `tests/golden/judge_corpus.txt` byte for byte.
//! Changes to the engines, the checker's state, the rollup path or the
//! daemon's engine handling must leave this file unchanged; a change
//! that means to alter the judge's output rewrites the file and says
//! why.

use std::fmt::Write as _;

use jinn::fsm::EnginePool;
use jinn::replay::{ReplayConfig, Trace};
use jinn::serve::{judge_trace, ServeConfig};

const SELECTIONS: [&str; 2] = ["jinn", "jinn,xcheck,hotspot"];

fn corpus_paths() -> Vec<std::path::PathBuf> {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jtrace"))
        .collect();
    paths.sort();
    paths
}

fn render() -> String {
    let config = ServeConfig::default();
    let pool = EnginePool::new(jinn::spec::machines());
    let mut out = String::new();
    for path in corpus_paths() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let trace = Trace::parse(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        for selection in SELECTIONS {
            let configs: Vec<ReplayConfig> = selection
                .split(',')
                .map(|l| ReplayConfig::parse(l).expect("known label"))
                .collect();
            let judged = judge_trace(
                &trace,
                1,
                "golden",
                &configs,
                &pool,
                None,
                config.recorder_ring,
                config.max_events_per_session,
            )
            .unwrap_or_else(|e| panic!("{name} [{selection}]: {e}"));
            writeln!(out, "== {name} [{selection}]").unwrap();
            for o in &judged.outcomes {
                writeln!(out, "outcome {} {}", o.config, o.behavior).unwrap();
            }
            for v in &judged.verdicts {
                writeln!(
                    out,
                    "verdict {} {} {} {} {:?}",
                    v.config, v.machine, v.error_state, v.function, v.message
                )
                .unwrap();
            }
            for r in &judged.rollups {
                writeln!(
                    out,
                    "rollup {} transitions={} entities={} errors={} unknown={}",
                    r.machine, r.transitions, r.entities, r.errors, r.unknown_transitions
                )
                .unwrap();
            }
            writeln!(out, "events {}", judged.events.len()).unwrap();
        }
    }
    out
}

#[test]
fn judge_output_over_corpus_matches_golden_file() {
    let path = format!(
        "{}/tests/golden/judge_corpus.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let actual = render();
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "judge output differs from {path} at line {}:\n  golden: {:?}\n  actual: {:?}",
            first + 1,
            golden.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
