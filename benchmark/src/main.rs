//! The Jinn benchmark: four workloads over `jinn-serve`, each measured
//! from outside the program, with an outside-in per-layer breakdown
//! (the checker's Table 3 cost included) from a separate traced run.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! benchmark [--seed N] [--seconds S] [--trace 0|1]   every workload, each in a child process
//! benchmark compare DIR_A DIR_B                      A = parent runs, B = change runs
//! benchmark calibrate [--seconds S]                  closed-loop capacity of the churn mix
//! ```
//!
//! Run it from the repository root (it reads `tests/corpus/*.jtrace`).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. Exit status:
//! 0 when every output checked correct, 1 on a wrong verdict or a
//! regression found by `compare`, 2 on a usage error or a run that could
//! not be measured. See `README.md` beside this crate.

mod checker;
mod compare;
mod inputs;
mod json;
mod serving;
mod spans;
mod stages;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Span;
use stats::{median, percentile, sorted, supported};

/// End-to-end metrics, as `BENCHMARK.json` declares them. Every
/// workload reports each one; "operation" means the workload's timed
/// operation (a session or a query).
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` declares them.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("serve.socket.connect_ms_p50", "ms"),
    ("serve.socket.outside_daemon_ms_p50", "ms"),
    ("serve.socket.outside_daemon_ms_p99", "ms"),
    ("serve.daemon.first_frame_to_verdict_ms_p50", "ms"),
    ("serve.daemon.open_us_p50", "us"),
    ("serve.daemon.append_us_p50", "us"),
    ("serve.daemon.seal_us_p50", "us"),
    ("serve.daemon.wait_us_p50", "us"),
    ("serve.daemon.wait_us_p99", "us"),
    ("serve.daemon.seal_to_verdict_us_p50", "us"),
    ("serve.daemon.streamed_share", "fraction"),
    ("fsm.pool.hit_ratio", "fraction"),
    ("fsm.pool.built", "count"),
    ("serve.store.query_by_machine_us_p50", "us"),
    ("serve.store.query_by_tenant_us_p50", "us"),
    ("serve.store.query_by_session_us_p50", "us"),
    ("serve.store.query_by_config_us_p50", "us"),
    ("serve.store.query_us_p99", "us"),
    ("serve.store.rows_per_query", "count"),
    ("serve.store.history_bytes", "bytes"),
    ("serve.store.purged_sessions", "count"),
    ("serve.store.buffered_bytes_high_water", "bytes"),
    ("serve.daemon.stream_append_us_p50", "us"),
    ("serve.daemon.stream_seal_to_verdict_us_p50", "us"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.latency_p90_ms", "ms"),
    ("jni.substrate.ns_per_call", "ns"),
    ("core.interpose.ns_per_call", "ns"),
    ("core.checker.ns_per_call", "ns"),
    ("obs.recorder.ns_per_call", "ns"),
    ("core.interpose.slowdown", "ratio"),
    ("core.checker.slowdown", "ratio"),
    ("replay.decode.frame_us.corpus", "us"),
    ("replay.decode.trace_parse_us.corpus", "us"),
    ("replay.decode.stream_us.corpus", "us"),
    ("replay.replay.bare_us.corpus", "us"),
    ("core.checker.delta_us.corpus", "us"),
    ("obs.recorder.delta_us.corpus", "us"),
    ("obs.recorder.events_us.corpus", "us"),
    ("fsm.pool.rollup_us.corpus", "us"),
    ("core.discharge.audit_us.corpus", "us"),
    ("serve.judge.total_us.corpus", "us"),
    ("serve.judge.unattributed_share.corpus", "fraction"),
    ("replay.decode.frame_us.churn", "us"),
    ("replay.decode.trace_parse_us.churn", "us"),
    ("replay.decode.stream_us.churn", "us"),
    ("replay.replay.bare_us.churn", "us"),
    ("core.checker.delta_us.churn", "us"),
    ("obs.recorder.delta_us.churn", "us"),
    ("obs.recorder.events_us.churn", "us"),
    ("fsm.pool.rollup_us.churn", "us"),
    ("core.discharge.audit_us.churn", "us"),
    ("serve.judge.total_us.churn", "us"),
    ("serve.judge.unattributed_share.churn", "fraction"),
    ("trace.overhead.throughput", "ratio"),
    ("trace.overhead.latency_p50", "ratio"),
    ("trace.overhead.latency_p90", "ratio"),
    ("trace.spans", "count"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Equal windows a timed window is cut into by completion time. The
/// end-to-end figures are medians over them, so a burst of interference
/// from other tenants of the host that covers less than half the run
/// does not move them.
const WINDOWS: u32 = 10;
/// The tail percentile: the highest that keeps ten samples beyond it
/// in every window of every workload. Untraced runs only print it: on
/// a shared host the tail follows the hypervisor's CPU steal, so it is
/// a per-layer metric of the traced run, with no bound.
const TAIL: f64 = 0.9;
/// In a traced run, how long each workload other than the one under
/// test, and the checker pass, run to measure the layers only they
/// reach.
const OWNER_SECONDS: f64 = 3.0;
/// Spans written to the Chrome-trace file at most.
const SPAN_FILE_CAP: usize = 200_000;

/// Why one operation did not count.
#[derive(Debug)]
pub enum Fault {
    /// The operation failed or was refused.
    Error(String),
    /// The program answered, wrongly: a verdict or query mismatch.
    Wrong(String),
}

/// Operation counts, failures and latencies of one measurement.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Descriptions of wrong answers.
    pub wrong: Vec<String>,
    /// The first few error descriptions.
    pub errors: Vec<String>,
    /// Every successful timed operation: when it completed, and its
    /// latency in nanoseconds.
    pub latencies: Vec<(Instant, u64)>,
}

impl Tally {
    /// Records a successful timed operation that completed at `at`.
    pub fn record(&mut self, at: Instant, latency: Duration) {
        self.latencies.push((at, latency.as_nanos() as u64));
    }

    /// Counts a failed operation.
    pub fn fault(&mut self, fault: Fault) {
        self.failed += 1;
        match fault {
            Fault::Error(e) if self.errors.len() < 5 => self.errors.push(e),
            Fault::Error(_) => {}
            Fault::Wrong(w) => self.wrong.push(w),
        }
    }

    /// Adds another tally's counts (latencies included).
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong.extend(o.wrong);
        self.errors.extend(o.errors);
        self.errors.truncate(5);
        self.latencies.extend(o.latencies);
    }

    /// `Err` on any failure: set-up and warm-up must run clean.
    pub fn into_result(self) -> Result<(), String> {
        match (self.wrong.first(), self.errors.first()) {
            (Some(w), _) => Err(format!("wrong answer during set-up: {w}")),
            (None, Some(e)) => Err(format!("failure during set-up: {e}")),
            (None, None) => Ok(()),
        }
    }
}

/// One measurement window of a prepared workload.
#[derive(Debug)]
pub struct Measured {
    /// Counts and latencies of the timed operation.
    pub tally: Tally,
    /// When the window started and ended.
    pub window: (Instant, Instant),
    /// Layer metrics this workload owns (traced windows only).
    pub layer: Vec<(&'static str, f64)>,
    /// Spans recorded (traced windows only).
    pub spans: Vec<Span>,
}

/// A workload that has been set up and warmed up.
pub trait Bench {
    /// Runs the workload for `seconds`, recording spans when `traced`.
    fn measure(&mut self, seconds: f64, traced: bool) -> Measured;
}

/// The workloads, in the order the all-workloads run takes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusSocket,
    CorpusInproc,
    CorpusQuery,
    ChurnStream,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::CorpusSocket,
        Workload::CorpusInproc,
        Workload::CorpusQuery,
        Workload::ChurnStream,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::CorpusSocket => "corpus-socket",
            Workload::CorpusInproc => "corpus-inproc",
            Workload::CorpusQuery => "corpus-query",
            Workload::ChurnStream => "churn-stream",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Loads inputs, starts what the workload drives, and warms it up.
    fn setup(self, seed: u64) -> Result<Box<dyn Bench>, String> {
        let root = Path::new(".");
        Ok(match self {
            Workload::CorpusSocket => Box::new(serving::CorpusSocket::setup(root, seed)?),
            Workload::CorpusInproc => Box::new(serving::CorpusInproc::setup(root, seed)?),
            Workload::CorpusQuery => Box::new(serving::CorpusQuery::setup(root, seed)?),
            Workload::ChurnStream => Box::new(serving::ChurnStream::setup(seed)?),
        })
    }
}

/// What one run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn count(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.correct &= t.wrong.is_empty();
        self.notes
            .extend(t.wrong.iter().take(5).map(|w| format!("WRONG {w}")));
        self.notes
            .extend(t.errors.iter().map(|e| format!("failed: {e}")));
    }

    /// Prints the human table on stderr and the result object as the
    /// last line of stdout. Every declared metric of `declared` must be
    /// present, once, and finite.
    fn print(&self, declared: &[(&str, &str)]) -> Result<(), String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = declared.iter().map(|d| d.0).collect();
        want.sort_unstable();
        if names != want {
            return Err(format!(
                "metrics emitted {names:?} differ from declared {want:?}"
            ));
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let value = self
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .map(|m| m.1)
                .expect("checked above");
            if !value.is_finite() {
                return Err(format!("{name} is {value}"));
            }
            eprintln!("  {name:<46} {value:>14.4} {unit}");
            fields.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                jinn_serve::json::escape(name),
                jinn_serve::json::escape(unit)
            ));
        }
        for note in &self.notes {
            eprintln!("  {note}");
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        );
        Ok(())
    }
}

/// Throughput, median and tail latency (ms) of a measurement, each the
/// median over `WINDOWS` equal windows, with every operation counted in
/// the window it completed in. `validate` insists on ten samples beyond
/// the tail percentile in every window.
fn headline(m: &Measured, validate: bool) -> Result<[f64; 3], String> {
    let (start, end) = m.window;
    let span_ns = end.saturating_duration_since(start).as_nanos().max(1);
    let mut windows = vec![Vec::new(); WINDOWS as usize];
    for &(at, ns) in &m.tally.latencies {
        let k = at.saturating_duration_since(start).as_nanos() * u128::from(WINDOWS) / span_ns;
        windows[k.min(u128::from(WINDOWS) - 1) as usize].push(ns as f64 / 1e6);
    }
    let width_s = span_ns as f64 / 1e9 / f64::from(WINDOWS);
    let [mut throughput, mut p50, mut tail] = [Vec::new(), Vec::new(), Vec::new()];
    for w in &windows {
        if validate && !supported(w.len(), TAIL) {
            return Err(format!(
                "a window has {} samples: its p{} needs at least ten beyond it",
                w.len(),
                TAIL * 100.0
            ));
        }
        throughput.push(w.len() as f64 / width_s);
        if !w.is_empty() {
            let lat = sorted(w);
            p50.push(percentile(&lat, 0.5));
            tail.push(percentile(&lat, TAIL));
        }
    }
    if p50.is_empty() {
        return Err("no operation succeeded".to_string());
    }
    Ok([median(&throughput), median(&p50), median(&tail)])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced run: set up `SETUPS` times (reporting the median), then
/// measure the last set-up for `seconds`.
fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(w.setup(seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let m = bench.measure(seconds, false);
    drop(bench);
    let [throughput, p50, p90] = headline(&m, true)?;
    let mut report = Report::new();
    report.count(&m.tally);
    report.metrics = vec![
        ("throughput_per_s", throughput),
        ("latency_p50_ms", p50),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    report.notes.push(format!(
        "{} timed operations in {WINDOWS} windows; p90 {p90:.4} ms; set-ups {setup_s:.3?} s",
        m.tally.latencies.len()
    ));
    Ok(report)
}

/// The traced run: the workload under test for `seconds/4` untraced,
/// `seconds/2` traced and `seconds/4` untraced again (the traced window
/// against the mean of the two around it is the tracing overhead, with
/// any steady drift cancelled), then every other workload and the
/// checker pass traced for `OWNER_SECONDS` each, to measure the layers
/// only they reach, then the offline stage pass.
fn run_traced(w: Workload, seed: u64, seconds: f64, spans_path: &Path) -> Result<Report, String> {
    let mut report = Report::new();
    let mut all_spans: Vec<Span> = Vec::new();

    let mut bench = w.setup(seed)?;
    let before = bench.measure(seconds / 4.0, false);
    let traced = bench.measure(seconds / 2.0, true);
    let after = bench.measure(seconds / 4.0, false);
    drop(bench);
    let [b0, b1] = [headline(&before, false)?, headline(&after, false)?];
    let [t0, p50_0, p90_0] = [0, 1, 2].map(|i| (b0[i] + b1[i]) / 2.0);
    let [t1, p50_1, p90_1] = headline(&traced, false)?;
    report.count(&before.tally);
    report.count(&traced.tally);
    report.count(&after.tally);
    report.metrics.extend([
        ("loadgen.latency_p90_ms", p90_0),
        ("trace.overhead.throughput", t0 / t1),
        ("trace.overhead.latency_p50", p50_1 / p50_0),
        ("trace.overhead.latency_p90", p90_1 / p90_0),
    ]);
    report.metrics.extend(traced.layer);
    spans::extend(&mut all_spans, traced.spans);

    let mut owned = Vec::new();
    for other in Workload::ALL.into_iter().filter(|&v| v != w) {
        owned.push(other.setup(seed)?.measure(OWNER_SECONDS, true));
    }
    owned.push(checker::CheckerChurn::setup(seed).measure(OWNER_SECONDS, true));
    for m in owned {
        report.count(&m.tally);
        report.metrics.extend(m.layer);
        spans::extend(&mut all_spans, m.spans);
    }

    let stage_metrics = stages::run()?;
    report.metrics.extend(stage_metrics.metrics);
    report.notes.extend(stage_metrics.notes);
    report.metrics.push(("trace.spans", all_spans.len() as f64));

    for (name, (count, total, own)) in spans::self_times(&all_spans) {
        report.notes.push(format!(
            "self time {name:<40} {count:>8} spans {:>10.1} ms total {:>10.1} ms self",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    spans::write_chrome(spans_path, &all_spans, SPAN_FILE_CAP, w.name())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    report
        .notes
        .push(format!("spans written to {}", spans_path.display()));
    Ok(report)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spans" => out.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans FILE]\n       benchmark compare DIR_A DIR_B\n       \
                     benchmark calibrate [--seconds S]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &args[1..] else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match compare::run(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("calibrate") => {
            let seconds = match parse_args(&args[1..]) {
                Ok(a) => a.seconds,
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            return match serving::ChurnStream::setup(1) {
                Ok(w) => {
                    let capacity = w.capacity(seconds);
                    println!(
                        "churn-stream closed-loop capacity: {capacity:.1} sessions/s \
                         (open-loop rate in use: {} sessions/s)",
                        serving::CHURN_RATE
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark calibrate: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let result = if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_spans/{}.json", w.name())));
        run_traced(w, args.seed, args.seconds, &path)
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "{} seed {} ({}), {} s",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    match result.and_then(|r| r.print(declared).map(|()| r.correct)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark {}: {e}", w.name());
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in a fresh child process of this binary,
/// so peak memory and warm caches belong to one workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let code = match cmd.status() {
            Ok(s) => s.code().map_or(2, |c| c.clamp(0, 255) as u8),
            Err(e) => {
                eprintln!("benchmark: spawn {}: {e}", w.name());
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = json::parse(compare::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(list)
            .map(json::Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(json::Json::str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metric_names_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let doc = json::parse(compare::BENCHMARK_JSON).expect("parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(json::Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    /// A one-second window with `per_window` operations completing
    /// evenly in each tenth; latencies count 1..=per_window ns in each
    /// tenth, plus `slow_ns` in the first tenth.
    fn measured(per_window: u64, slow_ns: u64) -> Measured {
        let start = Instant::now();
        let tenth = Duration::from_millis(100);
        let mut tally = Tally::default();
        for k in 0..WINDOWS {
            for i in 1..=per_window {
                let at = start + tenth * k + tenth * (i as u32) / (per_window as u32 + 1);
                let ns = if k == 0 { i + slow_ns } else { i };
                tally.latencies.push((at, ns));
            }
        }
        Measured {
            tally,
            window: (start, start + tenth * WINDOWS),
            layer: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn every_window_needs_ten_samples_beyond_its_p90() {
        assert!(headline(&measured(99, 0), true).is_err());
        assert!(headline(&measured(99, 0), false).is_ok());
        let [throughput, p50, p90] = headline(&measured(100, 0), true).expect("valid");
        assert!((throughput - 1000.0).abs() < 1e-6);
        assert_eq!((p50, p90), (50.0 / 1e6, 90.0 / 1e6));
    }

    #[test]
    fn one_slow_window_does_not_move_the_medians() {
        let [_, p50, p90] = headline(&measured(100, 1_000_000), true).expect("valid");
        assert_eq!((p50, p90), (50.0 / 1e6, 90.0 / 1e6));
    }
}
