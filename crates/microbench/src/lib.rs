//! `jinn-microbench` — the sixteen error-triggering JNI microbenchmarks.
//!
//! The paper's evaluation (Section 6.1) uses "a collection of 16 small JNI
//! programs, which are designed to trigger one each of the error states in
//! the eleven state machines" — covering every Table 1 pitfall except
//! pitfall 8, which cannot be detected at the language boundary. This
//! crate reproduces all sixteen, each runnable under any of the five
//! configurations of the evaluation: two vendor defaults, two
//! `-Xcheck:jni` baselines, and Jinn.
//!
//! It is also the one Table 1 harness. [`Config`] names a column (and
//! parses its CLI label), [`Program`] is anything runnable,
//! [`run_entries`] drives a program's entries, and [`classify`] turns the
//! run into a Table 1 cell. Live runs ([`run_scenario`]), recording and
//! replay (`jinn-replay`) all use these four, so a verdict is classified
//! the same way on every path that produces one.
//!
//! # Example
//!
//! ```
//! use jinn_microbench::{run_scenario, scenarios, Behavior, Config};
//! use jinn_vendors::Vendor;
//!
//! let dangling = scenarios()
//!     .into_iter()
//!     .find(|s| s.name == "LocalRefDangling")
//!     .expect("Figure 1 microbenchmark exists");
//! // HotSpot silently crashes...
//! let observed = run_scenario(&dangling, Config::Default(Vendor::HotSpot));
//! assert_eq!(observed.behavior, Behavior::Crash);
//! // ...Jinn pinpoints the bug.
//! let observed = run_scenario(&dangling, Config::Jinn(Vendor::HotSpot));
//! assert_eq!(observed.behavior, Behavior::JinnException);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scenarios;

use jinn_vendors::Vendor;
use minijni::{Report, ReportAction, RunOutcome, Session, Vm};
use minijvm::{DeathKind, JValue, MethodId, ThreadId};

pub use scenarios::scenarios;

/// A runnable program: one microbenchmark, a case study, or a generated
/// workload. Its native half violates at most one constraint; the
/// metadata names which.
pub struct Program {
    /// Program name (stack frames, and the `program` trace metadata).
    pub name: String,
    /// Table 1 pitfall number, if the program corresponds to a row.
    pub pitfall: Option<u8>,
    /// The state machine whose error state it triggers.
    pub machine: &'static str,
    /// The error state triggered.
    pub error_state: &'static str,
    /// Whether the buggy behaviour is a silent resource leak by default.
    pub leaks: bool,
    /// Auto-GC period to set on the VM (boundary crossings per GC), if
    /// any.
    pub gc_period: Option<u64>,
    /// Builds the program into a VM; returns the native entry points (run
    /// in order) and the arguments for the first.
    pub build: Box<dyn Fn(&mut Vm) -> Setup>,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("pitfall", &self.pitfall)
            .field("machine", &self.machine)
            .field("error_state", &self.error_state)
            .finish_non_exhaustive()
    }
}

impl Program {
    /// Builds the program into `vm` and applies its GC period.
    pub fn setup(&self, vm: &mut Vm) -> Setup {
        let setup = (self.build)(vm);
        if self.gc_period.is_some() {
            vm.jvm_mut().set_auto_gc_period(self.gc_period);
        }
        setup
    }
}

/// The built program: native entry methods to invoke in order, plus the
/// arguments of the first entry.
#[derive(Debug)]
pub struct Setup {
    /// Entry methods, invoked in order.
    pub entries: Vec<MethodId>,
    /// Arguments for the first entry (subsequent entries take none).
    pub first_args: Vec<JValue>,
}

impl Setup {
    /// The entries as [`run_entries`] takes them, all on `thread`.
    pub fn calls(&self, thread: ThreadId) -> impl Iterator<Item = Entry> + '_ {
        self.entries.iter().enumerate().map(move |(i, &method)| {
            let args = if i == 0 {
                self.first_args.clone()
            } else {
                Vec::new()
            };
            (thread, method, args)
        })
    }
}

/// One program entry: a native method called from `main` on a thread.
pub type Entry = (ThreadId, MethodId, Vec<JValue>);

/// A run configuration of the evaluation: which JVM, which checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Production run, no dynamic checking.
    Default(Vendor),
    /// `-Xcheck:jni`.
    Xcheck(Vendor),
    /// `-agentlib:jinn` (vendor-independent: works on either VM).
    Jinn(Vendor),
}

impl Config {
    /// The underlying vendor.
    pub fn vendor(self) -> Vendor {
        match self {
            Config::Default(v) | Config::Xcheck(v) | Config::Jinn(v) => v,
        }
    }

    /// Column label as in Table 1.
    pub fn label(self) -> String {
        match self {
            Config::Default(v) => format!("{v}"),
            Config::Xcheck(v) => format!("{v} -Xcheck:jni"),
            Config::Jinn(v) => format!("Jinn on {v}"),
        }
    }

    /// Parses a CLI-style label: `hotspot`, `j9`, `xcheck:hotspot`,
    /// `xcheck:j9`, `jinn`, `jinn:j9` (case-insensitive; `default`,
    /// `default:<vendor>`, `xcheck` and `jinn:hotspot` also name
    /// HotSpot configurations).
    pub fn parse(s: &str) -> Option<Config> {
        match s.to_ascii_lowercase().as_str() {
            "hotspot" | "default" | "default:hotspot" => Some(Config::Default(Vendor::HotSpot)),
            "j9" | "default:j9" => Some(Config::Default(Vendor::J9)),
            "xcheck" | "xcheck:hotspot" => Some(Config::Xcheck(Vendor::HotSpot)),
            "xcheck:j9" => Some(Config::Xcheck(Vendor::J9)),
            "jinn" | "jinn:hotspot" => Some(Config::Jinn(Vendor::HotSpot)),
            "jinn:j9" => Some(Config::Jinn(Vendor::J9)),
            _ => None,
        }
    }

    /// Attaches the configuration's checker, if any, to `session`.
    pub fn attach(self, session: &mut Session) {
        match self {
            Config::Default(_) => {}
            Config::Xcheck(v) => session.attach(v.xcheck()),
            Config::Jinn(_) => {
                jinn_core::install(session);
            }
        }
    }
}

/// The five standard configurations of the evaluation (Table 1 columns).
pub fn standard_configs() -> Vec<Config> {
    vec![
        Config::Default(Vendor::HotSpot),
        Config::Default(Vendor::J9),
        Config::Xcheck(Vendor::HotSpot),
        Config::Xcheck(Vendor::J9),
        Config::Jinn(Vendor::HotSpot),
    ]
}

/// The externally observable behaviour of a run, with the Table 1 legend's
/// vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Behavior {
    /// Jinn threw a `JNIAssertionFailure` (or reported at shutdown).
    JinnException,
    /// A checker printed a diagnosis and aborted the VM.
    Error,
    /// A checker printed a diagnosis and kept running.
    Warning,
    /// A `NullPointerException` was raised.
    Npe,
    /// The process hung.
    Deadlock,
    /// The process aborted without diagnosis.
    Crash,
    /// The program kept running and silently leaked a resource.
    Leak,
    /// The program kept running in spite of undefined JVM state.
    Running,
}

impl std::fmt::Display for Behavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Behavior::JinnException => "exception",
            Behavior::Error => "error",
            Behavior::Warning => "warning",
            Behavior::Npe => "NPE",
            Behavior::Deadlock => "deadlock",
            Behavior::Crash => "crash",
            Behavior::Leak => "leak",
            Behavior::Running => "running",
        };
        f.write_str(s)
    }
}

impl Behavior {
    /// A behaviour counts as a *valid bug report* (Section 6.3) if the
    /// tool produced a diagnosis: exception, warning, or error.
    pub fn is_detection(self) -> bool {
        matches!(
            self,
            Behavior::JinnException | Behavior::Error | Behavior::Warning
        )
    }
}

/// What a run produced: the classified behaviour plus diagnostics.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The classified behaviour.
    pub behavior: Behavior,
    /// The primary diagnosis message, if any tool produced one.
    pub message: Option<String>,
    /// The full session log (vendor warnings, exception descriptions).
    pub log: Vec<String>,
}

/// Runs a program's entries in order, each called from a
/// `{name}.main({name}.java:5)` Java frame on its thread, and stops after
/// the first outcome that is not [`RunOutcome::Completed`]: the program
/// dies there, or the Java caller rethrows.
pub fn run_entries(
    session: &mut Session,
    name: &str,
    entries: impl IntoIterator<Item = Entry>,
) -> Vec<RunOutcome> {
    let frame = format!("{name}.main({name}.java:5)");
    let mut outcomes = Vec::new();
    for (thread, method, args) in entries {
        session.env(thread).enter_java_frame(frame.as_str());
        let outcome = session.run_native(thread, method, &args);
        session.env(thread).exit_java_frame();
        let completed = matches!(outcome, RunOutcome::Completed(_));
        outcomes.push(outcome);
        if !completed {
            break;
        }
    }
    outcomes
}

/// Classifies a finished run in Table 1 vocabulary, from the last entry's
/// outcome, the shutdown reports and the session log. Returns the
/// behaviour and its primary diagnosis message.
///
/// # Panics
///
/// If `outcomes` is empty: a run has at least one entry.
pub fn classify(
    leaks: bool,
    config: Config,
    outcomes: &[RunOutcome],
    shutdown_reports: &[Report],
    log: &[String],
) -> (Behavior, Option<String>) {
    let last = outcomes.last().expect("at least one entry ran");
    // A verdict in flight when the run stopped.
    match last {
        RunOutcome::CheckerException(v) => {
            return (Behavior::JinnException, Some(v.message.clone()))
        }
        RunOutcome::UncaughtException(desc) if desc.contains("JNIAssertionFailure") => {
            return (Behavior::JinnException, Some(desc.clone()))
        }
        RunOutcome::Died(d) if d.kind == DeathKind::FatalError => {
            return (Behavior::Error, Some(d.message.clone()))
        }
        _ => {}
    }
    // A verdict at shutdown, or a warning logged on the way.
    let shutdown = |action| shutdown_reports.iter().find(|r| r.action == action);
    if let Some(r) = shutdown(ReportAction::ThrowException) {
        return (Behavior::JinnException, Some(r.violation.message.clone()));
    }
    if let Some(line) = log.iter().find(|l| l.contains("WARNING")) {
        return (Behavior::Warning, Some(line.clone()));
    }
    if let Some(r) = shutdown(ReportAction::Warn) {
        return (Behavior::Warning, Some(r.violation.message.clone()));
    }
    // No diagnosis: the symptom, if any.
    match last {
        RunOutcome::UncaughtException(desc) if desc.contains("NullPointerException") => {
            (Behavior::Npe, Some(desc.clone()))
        }
        RunOutcome::Died(d) if d.kind == DeathKind::Deadlock => {
            (Behavior::Deadlock, Some(d.message.clone()))
        }
        RunOutcome::Died(d) if d.kind == DeathKind::Crash => {
            (Behavior::Crash, Some(d.message.clone()))
        }
        _ if leaks && matches!(config, Config::Default(_)) => (Behavior::Leak, None),
        _ => (Behavior::Running, None),
    }
}

/// Runs one program under one configuration and classifies the outcome.
pub fn run_scenario(program: &Program, config: Config) -> Observed {
    let mut vm = config.vendor().vm();
    let setup = program.setup(&mut vm);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    config.attach(&mut session);
    let outcomes = run_entries(&mut session, &program.name, setup.calls(thread));
    let shutdown_reports = session.shutdown();
    let log = session.take_log();
    let (behavior, message) = classify(program.leaks, config, &outcomes, &shutdown_reports, &log);
    Observed {
        behavior,
        message,
        log,
    }
}

/// Runs all sixteen scenarios under a configuration.
pub fn run_all(config: Config) -> Vec<(String, Observed)> {
    scenarios()
        .into_iter()
        .map(|s| {
            let observed = run_scenario(&s, config);
            (s.name, observed)
        })
        .collect()
}

/// Detection coverage (Section 6.3): fraction of the sixteen
/// microbenchmarks on which the configuration produced a valid bug report.
pub fn coverage(config: Config) -> (usize, usize) {
    let results = run_all(config);
    let detected = results
        .iter()
        .filter(|(_, o)| o.behavior.is_detection())
        .count();
    (detected, results.len())
}
