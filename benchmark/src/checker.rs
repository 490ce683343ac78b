//! The checker pass of a traced run: Table 3's measurement with no
//! application work between crossings. A native method on the HotSpot
//! model does 64 string round-trips per call; rounds of native calls are
//! interleaved, in a seeded order, across the treatments below, so
//! interposition plus checking is the whole difference between them.
//!
//! It gives per-layer metrics only. Its absolute times follow the
//! host's memory interference too closely to be an end-to-end workload:
//! whole runs read up to 2× slower during episodes lasting minutes,
//! while the ratios within one round repeated within 2%.

use std::rc::Rc;
use std::time::Instant;

use jinn_core::{Jinn, SharedStats};
use jinn_obs::Recorder;
use jinn_vendors::Vendor;
use minijni::{typed, RunOutcome, Session};
use minijvm::{JValue, MethodId, ThreadId};

use crate::inputs::treatment_order;
use crate::spans::{self, SpanLog};
use crate::stats::median;
use crate::{Bench, Fault, Measured, Tally};

/// Native calls per treatment per round.
const CALLS_PER_ROUND: u32 = 100;
/// String round-trips per native call.
const STRINGS_PER_CALL: u32 = 64;
/// Untimed rounds before the first timed one.
const WARMUP_ROUNDS: u64 = 20;
/// GC period of every treatment's VM (safepoints per collection), as in
/// the Table 3 workloads.
const GC_PERIOD: u64 = 4096;

/// The treatments, in index order.
const NONE: usize = 0;
const INTERPOSE: usize = 1;
const JINN: usize = 2;
const RECORDED: usize = 3;
/// Span names, one per treatment: the layer each treatment adds.
const SPANS: [&str; 4] = [
    "jni.substrate.round",
    "core.interpose.round",
    "core.checker.round",
    "obs.recorder.round",
];

struct Treatment {
    session: Session,
    entry: MethodId,
    thread: ThreadId,
    checker: Option<SharedStats>,
}

impl Treatment {
    fn new(kind: usize) -> Treatment {
        let mut vm = Vendor::HotSpot.vm();
        vm.jvm_mut().set_auto_gc_period(Some(GC_PERIOD));
        let (_c, entry) = vm.define_native_class(
            "bench/CheckerChurn",
            "churn",
            "()I",
            true,
            Rc::new(|env, _| {
                let mut survived = 0;
                for i in 0..STRINGS_PER_CALL {
                    let s = typed::new_string_utf(env, &format!("churn-{i}"))?;
                    if typed::get_string_utf_length(env, s)? > 0 {
                        survived += 1;
                    }
                    typed::delete_local_ref(env, s)?;
                }
                Ok(JValue::Int(survived))
            }),
        );
        let thread = vm.jvm().main_thread();
        let mut session = Session::new(vm);
        let checker = match kind {
            NONE => None,
            INTERPOSE => Some(jinn_core::install_prebuilt(
                &mut session,
                Jinn::interpose_only(),
            )),
            JINN => Some(jinn_core::install(&mut session)),
            _ => {
                let ring = jinn_serve::ServeConfig::default().recorder_ring;
                session.set_recorder(Recorder::enabled(ring));
                Some(jinn_core::install(&mut session))
            }
        };
        Treatment {
            session,
            entry,
            thread,
            checker,
        }
    }
}

/// One timed round: per treatment, nanoseconds for the whole round and
/// the JNI calls it issued.
struct Round {
    ns: [f64; 4],
    jni_calls: [u64; 4],
}

/// Runs round `id`: each treatment, in the seeded order, on a fresh VM
/// (as each Table 3 measurement is), so neither memory nor per-call
/// cost depends on how long the benchmark has run.
fn round(seed: u64, id: u64, log: &mut SpanLog, t: &mut Tally) -> Round {
    let mut out = Round {
        ns: [0.0; 4],
        jni_calls: [0; 4],
    };
    for k in treatment_order(seed, id, SPANS.len()) {
        let mut tr = Treatment::new(k);
        let open = log.begin(SPANS[k], id);
        for _ in 0..CALLS_PER_ROUND {
            t.attempted += 1;
            match tr.session.run_native(tr.thread, tr.entry, &[]) {
                RunOutcome::Completed(JValue::Int(n)) if n == STRINGS_PER_CALL as i32 => {}
                other => t.fault(Fault::Wrong(format!("{}: {other:?}", SPANS[k]))),
            }
        }
        out.ns[k] = log.end(open).as_nanos() as f64;
        out.jni_calls[k] = tr.session.vm().stats().c_to_java;
        if let Some(v) = tr.checker.map(|s| s.violations()).filter(|&v| v > 0) {
            t.fault(Fault::Wrong(format!("{}: {v} violations", SPANS[k])));
        }
    }
    let ran = out.jni_calls;
    if ran.iter().any(|&c| c != ran[NONE]) {
        t.fault(Fault::Wrong(format!(
            "treatments issued different JNI call counts: {ran:?}"
        )));
    }
    out
}

pub struct CheckerChurn {
    seed: u64,
    next_round: u64,
}

impl CheckerChurn {
    pub fn setup(seed: u64) -> CheckerChurn {
        let mut w = CheckerChurn {
            seed,
            next_round: 0,
        };
        let mut log = SpanLog::new(false, 0);
        for _ in 0..WARMUP_ROUNDS {
            w.next_round += 1;
            round(seed, w.next_round, &mut log, &mut Tally::default());
        }
        w
    }
}

impl Bench for CheckerChurn {
    fn measure(&mut self, seconds: f64, traced: bool) -> Measured {
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(seconds);
        let mut log = SpanLog::new(traced, 0);
        let mut tally = Tally::default();
        let mut rounds = Vec::new();
        while rounds.is_empty() || Instant::now() < deadline {
            self.next_round += 1;
            rounds.push(round(self.seed, self.next_round, &mut log, &mut tally));
        }
        // Every figure is a ratio or a difference within one round, the
        // median over rounds, so the host's drift between rounds cancels.
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let per_call = |r: &Round| r.jni_calls[NONE].max(1) as f64;
        let layer = if traced {
            vec![
                (
                    "jni.substrate.ns_per_call",
                    per_round(&|r| r.ns[NONE] / per_call(r)),
                ),
                (
                    "core.interpose.ns_per_call",
                    per_round(&|r| (r.ns[INTERPOSE] - r.ns[NONE]) / per_call(r)),
                ),
                (
                    "core.checker.ns_per_call",
                    per_round(&|r| (r.ns[JINN] - r.ns[INTERPOSE]) / per_call(r)),
                ),
                (
                    "obs.recorder.ns_per_call",
                    per_round(&|r| (r.ns[RECORDED] - r.ns[JINN]) / per_call(r)),
                ),
                (
                    "core.interpose.slowdown",
                    per_round(&|r| r.ns[INTERPOSE] / r.ns[NONE]),
                ),
                (
                    "core.checker.slowdown",
                    per_round(&|r| r.ns[JINN] / r.ns[NONE]),
                ),
            ]
        } else {
            Vec::new()
        };
        Measured {
            tally,
            window: (start, Instant::now()),
            layer,
            spans: spans::merge([log]),
        }
    }
}
