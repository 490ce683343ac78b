//! The offline stage pass of a traced run: per session, how long each
//! stage of the buffered judge takes, each timed around one public call,
//! for the corpus family and the churn family. The stages of
//! `judge_trace` must sum to within 10% of `judge_trace` itself
//! (`serve.judge.unattributed_share`); the run prints a warning when they
//! do not.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jinn_fsm::{AtomicEnginePool, EnginePool};
use jinn_obs::Recorder;
use jinn_replay::{
    decode_stream, encode_ingest, replay_trace, replay_trace_observed, ReplayConfig, StreamDecoder,
    Trace,
};
use jinn_serve::{judge_trace, rollup_events, ServeConfig};

use crate::inputs::{record_churn, Corpus, CHURN_CALLS, JINN};
use crate::stats::median;

/// Chunk the stream decoder is fed in (the churn upload's).
const CHUNK: usize = 2048;
/// Event summaries the daemon keeps per session (its default).
const MAX_EVENTS: usize = 512;
/// Minimum repetitions of a family, and the time after which no new
/// repetition starts.
const MIN_REPS: usize = 5;
const FAMILY_BUDGET: Duration = Duration::from_millis(800);

/// Stage metrics plus any sum-check warnings.
pub struct Stages {
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// Per-session stage times, in nanoseconds, of one repetition.
#[derive(Default, Clone, Copy)]
struct Times {
    frame: f64,
    parse: f64,
    stream: f64,
    bare: f64,
    jinn: f64,
    observed: f64,
    events: f64,
    rollup: f64,
    audit: f64,
    judge: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

struct Input {
    bytes: Vec<u8>,
    wire: Vec<u8>,
    trace: Trace,
}

fn one_rep(inputs: &[Input], pool: &Arc<AtomicEnginePool<u64>>) -> Result<Times, String> {
    let hotspot = ReplayConfig::parse("hotspot").expect("known label");
    let jinn = ReplayConfig::parse(JINN).expect("known label");
    let ring = ServeConfig::default().recorder_ring;
    let mut t = Times::default();
    for input in inputs {
        let trace = &input.trace;
        t.frame += timed(|| decode_stream(&input.wire).expect("self-encoded stream"));
        t.parse += timed(|| Trace::parse(&input.bytes).expect("parsed once already"));
        t.stream += timed(|| {
            let mut d = StreamDecoder::new();
            for chunk in input.bytes.chunks(CHUNK) {
                d.feed(chunk);
                while let Some(r) = d.next_record().expect("decodes") {
                    black_box(r);
                }
            }
            d.finish().expect("complete stream")
        });
        t.bare += timed(|| replay_trace(trace, &hotspot).expect("replays"));
        t.jinn += timed(|| replay_trace(trace, &jinn).expect("replays"));
        let recorder = Recorder::enabled(ring);
        t.observed += timed(|| replay_trace_observed(trace, &jinn, &recorder).expect("replays"));
        let start = Instant::now();
        let events = recorder.events();
        t.events += start.elapsed().as_nanos() as f64;
        t.rollup += timed(|| rollup_events(pool, &events));
        t.audit += timed(|| {
            let manifest =
                jinn_core::WorkloadManifest::new(trace.program(), trace.called_functions());
            jinn_core::discharge(&jinn_spec::machines(), &manifest)
        });
        let start = Instant::now();
        let judged = judge_trace(
            trace,
            1,
            "stages",
            std::slice::from_ref(&jinn),
            pool,
            None,
            ring,
            MAX_EVENTS,
        );
        t.judge += start.elapsed().as_nanos() as f64;
        black_box(judged.map_err(|e| format!("judge_trace: {e}"))?);
    }
    let n = inputs.len() as f64;
    for v in [
        &mut t.frame,
        &mut t.parse,
        &mut t.stream,
        &mut t.bare,
        &mut t.jinn,
        &mut t.observed,
        &mut t.events,
        &mut t.rollup,
        &mut t.audit,
        &mut t.judge,
    ] {
        *v /= n;
    }
    Ok(t)
}

fn family(
    names: [&'static str; 11],
    label: &str,
    traces: Vec<Vec<u8>>,
    out: &mut Stages,
) -> Result<(), String> {
    let inputs: Vec<Input> = traces
        .into_iter()
        .map(|bytes| {
            let trace = Trace::parse(&bytes).map_err(|e| format!("{label}: {e}"))?;
            let wire = encode_ingest(1, "stages", JINN, &bytes, CHUNK);
            Ok(Input { bytes, wire, trace })
        })
        .collect::<Result<_, String>>()?;
    let pool = EnginePool::new(jinn_spec::machines());
    one_rep(&inputs, &pool)?; // warm-up
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < FAMILY_BUDGET {
        reps.push(one_rep(&inputs, &pool)?);
    }
    let med = |f: fn(&Times) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>()) / 1e3;
    let total = med(|t| t.judge);
    let parts = [
        med(|t| t.bare),
        med(|t| t.jinn - t.bare),
        med(|t| t.observed - t.jinn),
        med(|t| t.events),
        med(|t| t.rollup),
        med(|t| t.audit),
    ];
    // Within one repetition the stages and the judge ran back to back,
    // so the share left unattributed is taken per repetition.
    let unattributed = median(
        &reps
            .iter()
            .map(|t| (t.judge - (t.observed + t.events + t.rollup + t.audit)) / t.judge)
            .collect::<Vec<_>>(),
    );
    let values = [
        med(|t| t.frame),
        med(|t| t.parse),
        med(|t| t.stream),
        parts[0],
        parts[1],
        parts[2],
        parts[3],
        parts[4],
        parts[5],
        total,
        unattributed,
    ];
    out.metrics.extend(names.into_iter().zip(values));
    out.notes.push(format!(
        "stage pass {label}: {} reps; stages sum to {:.1}% of judge_trace ({total:.1} us)",
        reps.len(),
        (1.0 - unattributed) * 100.0
    ));
    if unattributed.abs() > 0.10 {
        out.notes.push(format!(
            "WARNING stage pass {label}: stages leave {:.1}% of judge_trace unattributed (limit 10%)",
            unattributed * 100.0
        ));
    }
    Ok(())
}

/// Runs the stage pass over the corpus and the churn traces.
///
/// # Errors
///
/// An unreadable corpus or a failed judge.
pub fn run() -> Result<Stages, String> {
    let mut out = Stages {
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let corpus = Corpus::load(Path::new("."), 0)?;
    let corpus_traces = corpus.traces.iter().map(|t| t.bytes.clone()).collect();
    family(
        [
            "replay.decode.frame_us.corpus",
            "replay.decode.trace_parse_us.corpus",
            "replay.decode.stream_us.corpus",
            "replay.replay.bare_us.corpus",
            "core.checker.delta_us.corpus",
            "obs.recorder.delta_us.corpus",
            "obs.recorder.events_us.corpus",
            "fsm.pool.rollup_us.corpus",
            "core.discharge.audit_us.corpus",
            "serve.judge.total_us.corpus",
            "serve.judge.unattributed_share.corpus",
        ],
        "corpus",
        corpus_traces,
        &mut out,
    )?;
    family(
        [
            "replay.decode.frame_us.churn",
            "replay.decode.trace_parse_us.churn",
            "replay.decode.stream_us.churn",
            "replay.replay.bare_us.churn",
            "core.checker.delta_us.churn",
            "obs.recorder.delta_us.churn",
            "obs.recorder.events_us.churn",
            "fsm.pool.rollup_us.churn",
            "core.discharge.audit_us.churn",
            "serve.judge.total_us.churn",
            "serve.judge.unattributed_share.churn",
        ],
        "churn",
        CHURN_CALLS.iter().map(|&c| record_churn(c)).collect(),
        &mut out,
    )?;
    Ok(out)
}
