//! The replay CLI: record golden traces, validate them, replay them
//! under checker configurations, and diff the verdicts.
//!
//! ```text
//! replay record [--out DIR] [--verify] [PROGRAM...]   record traces (default: all)
//! replay check [--json] FILE...                       parse + checksum-validate
//! replay diff [--config LIST] [--json] [--expect-agree] FILE...
//!                                                     differential verdicts
//! replay stats [--json] FILE...                       per-trace summaries
//!                                                     (+ static-discharge audit)
//! replay bench                                        BENCH_replay.json on stdout
//! ```
//!
//! Exit status: 0 clean, 1 on any validation failure, replay divergence,
//! or (under `--expect-agree`) verdict disagreement, 2 on usage errors.
//! `--json` switches `check`/`diff` to one JSON object per line.
//!
//! Configurations for `--config` are comma-separated labels:
//! `hotspot`, `j9`, `xcheck:hotspot`, `xcheck:j9`, `jinn`, `jinn:j9`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use jinn_bench::env_u64;
use jinn_replay::{
    check_version, diff_trace, program_by_name, program_names, record_program, replay_trace,
    standard_configs, trace_discharge, RecordVendor, ReplayConfig, Trace, TraceWriter,
    FORMAT_VERSION,
};
use jinn_vendors::Vendor;
use jinn_workloads::{benchmark, build_workload};
use minijni::{RunOutcome, Session, Vm};
use minijvm::JValue;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("bench") => cmd_bench(),
        _ => {
            eprintln!("usage: replay <record|check|diff|stats|bench> [args...]");
            2
        }
    };
    std::process::exit(code);
}

// ---- record ------------------------------------------------------------

fn cmd_record(args: &[String]) -> i32 {
    let mut out_dir = "tests/corpus".to_string();
    let mut verify = false;
    let mut names = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(d) => out_dir = d.clone(),
                None => {
                    eprintln!("--out needs a directory");
                    return 2;
                }
            },
            "--verify" => verify = true,
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        names = program_names();
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("replay record: cannot create {out_dir}: {e}");
        return 1;
    }
    let mut failures = 0;
    for name in &names {
        let Some(program) = program_by_name(name) else {
            eprintln!("replay record: unknown program `{name}`");
            failures += 1;
            continue;
        };
        let bytes = record_program(&program);
        if verify {
            let again = record_program(&program);
            if bytes != again {
                eprintln!("replay record: {name}: re-recording is NOT byte-identical");
                failures += 1;
                continue;
            }
        }
        let path = format!("{out_dir}/{name}.jtrace");
        match std::fs::write(&path, &bytes) {
            Ok(()) => println!(
                "recorded {path}: {} bytes{}",
                bytes.len(),
                if verify {
                    " (verified deterministic)"
                } else {
                    ""
                }
            ),
            Err(e) => {
                eprintln!("replay record: {path}: {e}");
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

// ---- check -------------------------------------------------------------

/// Minimal JSON string escaping for file names and error messages.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Validates one trace file; returns the `ok` line or the `FAIL` message
/// (plain text or one JSON object, per `json`).
fn check_one(file: &str, json: bool) -> Result<String, String> {
    let fail = |e: String| {
        if json {
            format!(
                "{{\"file\": {}, \"ok\": false, \"error\": {}, \"reader_format\": {FORMAT_VERSION}}}",
                json_str(file),
                json_str(&e)
            )
        } else {
            format!("FAIL {file}: {e} (reader is at format v{FORMAT_VERSION})")
        }
    };
    let bytes = std::fs::read(file).map_err(|e| fail(e.to_string()))?;
    check_version(&bytes)
        .and_then(|_| Trace::parse(&bytes))
        .map(|trace| {
            if json {
                format!(
                    "{{\"file\": {}, \"ok\": true, \"program\": {}, \"format\": {}, \"events\": {}}}",
                    json_str(file),
                    json_str(trace.program()),
                    trace.version,
                    trace.events.len()
                )
            } else {
                format!(
                    "ok {file}: program={} format=v{} events={}",
                    trace.program(),
                    trace.version,
                    trace.events.len()
                )
            }
        })
        .map_err(|e| fail(e.to_string()))
}

fn cmd_check(args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    if files.is_empty() {
        eprintln!("usage: replay check [--json] FILE...");
        return 2;
    }
    // One verifier thread per trace: each thread reads and parses its own
    // file, so nothing but the path crosses in and nothing but the verdict
    // string crosses out. Results are reported in argument order so the
    // output is deterministic regardless of which verifier finishes first.
    let verdicts: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = files
            .iter()
            .map(|file| scope.spawn(move || check_one(file, json)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("FAIL: verifier thread panicked".to_string()))
            })
            .collect()
    });
    let mut failures = 0;
    for verdict in verdicts {
        match verdict {
            Ok(line) => println!("{line}"),
            Err(line) => {
                if json {
                    println!("{line}");
                } else {
                    eprintln!("{line}");
                }
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

// ---- diff --------------------------------------------------------------

fn parse_configs(list: &str) -> Option<Vec<ReplayConfig>> {
    list.split(',').map(ReplayConfig::parse).collect()
}

/// One diff report as a JSON object line.
fn diff_json(file: &str, report: &jinn_replay::DiffReport) -> String {
    let outcomes: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"config\": {}, \"behavior\": {}, \"message\": {}, \
                 \"events_replayed\": {}, \"divergences\": {}}}",
                json_str(&o.label),
                json_str(&o.behavior.to_string()),
                o.message.as_deref().map_or("null".to_string(), json_str),
                o.events_replayed,
                o.divergences
            )
        })
        .collect();
    format!(
        "{{\"file\": {}, \"ok\": true, \"program\": {}, \"agree\": {}, \
         \"distinct_behaviors\": {}, \"divergences\": {}, \"outcomes\": [{}]}}",
        json_str(file),
        json_str(&report.program),
        report.agree(),
        report.distinct_behaviors(),
        report.outcomes.iter().map(|o| o.divergences).sum::<u64>(),
        outcomes.join(", ")
    )
}

fn cmd_diff(args: &[String]) -> i32 {
    let mut configs = standard_configs();
    let mut files = Vec::new();
    let mut json = false;
    let mut expect_agree = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => match it.next().map(|l| parse_configs(l)) {
                Some(Some(c)) if !c.is_empty() => configs = c,
                _ => {
                    eprintln!("--config needs a comma-separated list of labels");
                    return 2;
                }
            },
            "--json" => json = true,
            "--expect-agree" => expect_agree = true,
            f => files.push(f.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: replay diff [--config LIST] [--json] [--expect-agree] FILE...");
        return 2;
    }
    let mut failures = 0;
    for file in &files {
        let report = std::fs::read(file)
            .map_err(|e| e.to_string())
            .and_then(|bytes| Trace::parse(&bytes).map_err(|e| e.to_string()))
            .and_then(|trace| diff_trace(&trace, &configs).map_err(|e| e.to_string()));
        match report {
            Ok(r) => {
                if json {
                    println!("{}", diff_json(file, &r));
                } else {
                    print!("{}", r.render());
                }
                // A replay divergence means the trace no longer re-drives
                // faithfully under some configuration — that is a mismatch,
                // not a verdict difference, and always fails the run.
                if r.outcomes.iter().any(|o| o.divergences > 0) {
                    if !json {
                        eprintln!("FAIL {file}: replay diverged from the recorded trace");
                    }
                    failures += 1;
                } else if expect_agree && !r.agree() {
                    if !json {
                        eprintln!("FAIL {file}: configurations disagree (--expect-agree)");
                    }
                    failures += 1;
                }
            }
            Err(e) => {
                if json {
                    println!(
                        "{{\"file\": {}, \"ok\": false, \"error\": {}}}",
                        json_str(file),
                        json_str(&e)
                    );
                } else {
                    eprintln!("FAIL {file}: {e}");
                }
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

// ---- stats -------------------------------------------------------------

/// One per-trace stats report as a JSON object line, including the
/// static-discharge audit: which machine transitions could have been
/// compiled out for this trace's exact call-site set.
fn stats_json(file: &str, trace: &Trace, byte_len: usize) -> String {
    let counts: Vec<String> = trace
        .event_counts()
        .into_iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    let report = trace_discharge(trace);
    let machines: Vec<String> = report
        .machines
        .iter()
        .map(|m| {
            format!(
                "{{\"machine\": {}, \"transitions\": {}, \"discharged\": {}, \"inactive\": {}}}",
                json_str(&m.machine),
                m.total_transitions,
                m.discharged.len(),
                m.inactive
            )
        })
        .collect();
    let inactive: Vec<String> = report
        .inactive_machines()
        .iter()
        .map(|m| json_str(m))
        .collect();
    format!(
        "{{\"file\": {}, \"ok\": true, \"program\": {}, \"format\": {}, \"bytes\": {byte_len}, \
         \"events\": {}, \"event_counts\": {{{}}}, \"discharge\": {{\
         \"called_functions\": {}, \"total_transitions\": {}, \"total_discharged\": {}, \
         \"inactive_machines\": [{}], \"machines\": [{}]}}}}",
        json_str(file),
        json_str(trace.program()),
        trace.version,
        trace.events.len(),
        counts.join(", "),
        report.manifest_functions,
        report.total_transitions(),
        report.total_discharged(),
        inactive.join(", "),
        machines.join(", "),
    )
}

fn cmd_stats(args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    if files.is_empty() {
        eprintln!("usage: replay stats [--json] FILE...");
        return 2;
    }
    let mut failures = 0;
    for file in &files {
        match std::fs::read(file)
            .map_err(|e| e.to_string())
            .and_then(|b| {
                Trace::parse(&b)
                    .map(|t| {
                        if json {
                            stats_json(file, &t, b.len())
                        } else {
                            let mut s = t.summary(b.len());
                            let report = trace_discharge(&t);
                            s.push_str(&format!(
                                "discharge audit: {} of {} transitions dischargeable; \
                             inactive machines: {:?}\n",
                                report.total_discharged(),
                                report.total_transitions(),
                                report.inactive_machines(),
                            ));
                            s
                        }
                    })
                    .map_err(|e| e.to_string())
            }) {
            Ok(out) => {
                if json {
                    println!("{out}");
                } else {
                    print!("{out}");
                }
            }
            Err(e) => {
                if json {
                    println!(
                        "{{\"file\": {}, \"ok\": false, \"error\": {}}}",
                        json_str(file),
                        json_str(&e)
                    );
                } else {
                    eprintln!("FAIL {file}: {e}");
                }
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

// ---- bench -------------------------------------------------------------

/// Runs the `jack`-density workload until `target` transitions, with or
/// without a recording tap, returning elapsed time and the trace bytes
/// when recording.
fn run_jack(target: u64, record: bool) -> (Duration, u64, Option<Vec<u8>>) {
    let mut vm = Vm::new(Box::new(RecordVendor));
    vm.jvm_mut().set_auto_gc_period(Some(4096));
    let baseline = vm.jvm().registry().class_count();
    let (entry, args) = build_workload(&mut vm, 0x1234_5678);

    let writer = if record {
        let writer = Rc::new(RefCell::new(TraceWriter::new()));
        {
            let mut w = writer.borrow_mut();
            w.meta("program", "jack");
            w.meta("leaks", "false");
            w.meta("gc_period", "4096");
            w.def_classes(vm.jvm(), baseline);
            for v in &args {
                if let JValue::Ref(r) = v {
                    w.seed(vm.jvm(), *r);
                }
            }
        }
        Some(writer)
    } else {
        None
    };

    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    if let Some(w) = &writer {
        session.set_tap(Some(w.clone()));
    }

    let start = Instant::now();
    loop {
        let outcome = session.run_native(thread, entry, &args);
        assert!(
            matches!(outcome, RunOutcome::Completed(_)),
            "workload must be bug-free: {outcome:?}"
        );
        if session.vm().stats().total() >= target {
            break;
        }
    }
    let elapsed = start.elapsed();
    let transitions = session.vm().stats().total();
    session.set_tap(None);
    drop(session);

    let bytes = writer.map(|w| {
        Rc::try_unwrap(w)
            .expect("tap detached; sole writer handle")
            .into_inner()
            .finish()
    });
    (elapsed, transitions, bytes)
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[allow(clippy::too_many_lines)]
fn cmd_bench() -> i32 {
    let spec = benchmark("jack").expect("jack is a Table 3 benchmark");
    let scale = env_u64("JINN_SCALE", 100).max(1);
    let trials = (env_u64("JINN_TRIALS", 5) as usize).max(1);
    let target = (spec.transitions / scale).max(100);

    // Warm-up, excluded from measurement.
    run_jack(target.min(1000), false);

    let mut off = Vec::with_capacity(trials);
    let mut on = Vec::with_capacity(trials);
    let mut trace_bytes = Vec::new();
    let mut transitions = 0;
    for _ in 0..trials {
        let (d, t, _) = run_jack(target, false);
        off.push(d.as_nanos());
        let (d, t2, bytes) = run_jack(target, true);
        on.push(d.as_nanos());
        transitions = t.max(t2);
        trace_bytes = bytes.expect("record mode returns bytes");
    }
    let med_off = median(off.clone());
    let med_on = median(on.clone());
    let record_ratio = med_on as f64 / med_off as f64;

    // Replay throughput: re-drive the recorded trace through a bare
    // HotSpot stack and through full Jinn, measuring re-issued calls/sec.
    let trace = Trace::parse(&trace_bytes).expect("fresh recording parses");
    let mut replay_nanos = Vec::with_capacity(trials);
    let mut events = 0u64;
    let mut divergences = 0u64;
    for _ in 0..trials {
        let start = Instant::now();
        let outcome =
            replay_trace(&trace, &ReplayConfig::Default(Vendor::HotSpot)).expect("replayable");
        replay_nanos.push(start.elapsed().as_nanos());
        events = outcome.events_replayed;
        divergences = outcome.divergences;
    }
    let med_replay = median(replay_nanos.clone());
    let events_per_sec = events as f64 / (med_replay as f64 / 1e9);

    let jinn_start = Instant::now();
    let jinn = replay_trace(&trace, &ReplayConfig::Jinn(Vendor::HotSpot)).expect("replayable");
    let jinn_events_per_sec =
        jinn.events_replayed as f64 / jinn_start.elapsed().as_secs_f64().max(1e-9);

    let list = |samples: &[u128]| {
        samples
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("{{");
    println!("  \"benchmark\": \"jack-density workload (Table 3 transition mix)\",");
    println!("  \"paper_transitions\": {},", spec.transitions);
    println!("  \"scale\": {scale},");
    println!("  \"transitions_per_trial\": {transitions},");
    println!("  \"trials\": {trials},");
    println!("  \"trace_bytes\": {},", trace_bytes.len());
    println!("  \"trace_events\": {},", trace.events.len());
    println!("  \"recorder_off_nanos\": [{}],", list(&off));
    println!("  \"recorder_on_nanos\": [{}],", list(&on));
    println!("  \"median_off_nanos\": {med_off},");
    println!("  \"median_on_nanos\": {med_on},");
    println!("  \"record_over_baseline\": {record_ratio:.4},");
    println!("  \"record_within_2x\": {},", record_ratio <= 2.0);
    println!("  \"replay_nanos\": [{}],", list(&replay_nanos));
    println!("  \"replay_events\": {events},");
    println!("  \"replay_divergences\": {divergences},");
    println!("  \"replay_events_per_sec\": {events_per_sec:.0},");
    println!(
        "  \"replay_at_least_100k_per_sec\": {},",
        events_per_sec >= 100_000.0
    );
    println!("  \"jinn_replay_events_per_sec\": {jinn_events_per_sec:.0},");
    println!(
        "  \"note\": \"record = TraceWriter tapped at the Interpose seam; replay = scripted \
         bodies re-issuing recorded JNI calls through a bare HotSpot stack\""
    );
    println!("}}");
    i32::from(!(record_ratio <= 2.0 && events_per_sec >= 100_000.0) && cfg!(not(debug_assertions)))
}
