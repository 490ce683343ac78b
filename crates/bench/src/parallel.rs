//! The multi-threaded workload driver: N `JniSession`s on N OS threads.
//!
//! The paper's checkers are thread-local by construction — a `JNIEnv` is
//! only valid on its owning thread — so workers share nothing. Each
//! worker owns:
//!
//! - one [`Jinn`] checker, constructed on the driver thread and *moved*
//!   into the worker (`Jinn: Send` since the stats cell went atomic);
//! - one full `Vm`: its private heap, with `ballast/N` long-lived
//!   globals;
//! - one enabled [`Recorder`]: a recorder has one writer, so workers
//!   never meet on a recorder's lock.
//!
//! Each worker runs `transitions/N` boundary crossings of the Table 3
//! workload mix. Total work is constant across thread counts, so
//! `checked events / wall-clock` is directly comparable.
//!
//! A note on where the speedup comes from: it is mostly the copying
//! collector, not parallel checking. A collection costs O(live heap),
//! and each worker's heap holds `ballast/N` globals, so N workers each
//! collecting a heap 1/N-th the size do ~1/N-th the aggregate GC work
//! for the same number of checked events. With ballast the single
//! worker spends most of its time collecting, so the curve can be
//! superlinear even on one core; it is not a scaling claim. Per-worker
//! wall times (the fairness spread) are reported so the curve's shape
//! is interpretable either way.

use std::time::{Duration, Instant};

use jinn_core::Jinn;
use jinn_obs::Recorder;
use jinn_vendors::Vendor;
use jinn_workloads::build_workload;
use minijni::{RunOutcome, Session};

/// Knobs for one parallel run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker (OS thread) count.
    pub threads: usize,
    /// Total boundary transitions across all workers.
    pub transitions: u64,
    /// Total long-lived ballast objects, split evenly across workers'
    /// private heaps. Ballast is what makes each collection expensive.
    pub ballast: usize,
    /// Auto-GC period per worker VM (transitions between collections).
    pub gc_period: u64,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            threads: 1,
            transitions: 40_000,
            ballast: 8_192,
            gc_period: 512,
        }
    }
}

/// Measured outcome of one parallel run.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Worker count.
    pub threads: usize,
    /// Sum of per-worker boundary transitions actually executed.
    pub transitions: u64,
    /// Sum of `checks_executed` across all workers' checkers.
    pub checked_events: u64,
    /// Sum of violations (must be zero — the workload is bug-free).
    pub violations: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// `checked_events / elapsed` — the headline metric.
    pub events_per_sec: f64,
    /// Events recorded, summed over the workers' recorders (including
    /// events their rings evicted).
    pub trace_events: u64,
    /// Leak/violation reports from session shutdown (must be empty).
    pub shutdown_reports: usize,
    /// Per-worker wall-clock, in spawn order.
    pub worker_wall_nanos: Vec<u64>,
    /// Max/min of per-worker wall times: 1.0 is perfectly fair
    /// scheduling; large values mean the curve is measuring stragglers.
    pub fairness_spread: f64,
}

/// Runs the workload across `cfg.threads` workers and measures it.
pub fn run_parallel(cfg: &ParallelConfig) -> ParallelRun {
    let threads = cfg.threads.max(1);
    let share = (cfg.transitions / threads as u64).max(100);
    let ballast_each = cfg.ballast / threads;

    let recorders: Vec<Recorder> = (0..threads).map(|_| Recorder::enabled(1 << 14)).collect();

    // Checkers are built *here*, on the driver thread, then moved into
    // the workers — the whole point of `Jinn: Send`.
    let checkers: Vec<Jinn> = (0..threads).map(|_| Jinn::new()).collect();

    let start = Instant::now();
    let worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = checkers
            .into_iter()
            .enumerate()
            .map(|(t, jinn)| {
                let recorder = recorders[t].clone();
                scope.spawn(move || {
                    run_worker(WorkerContext {
                        t,
                        jinn,
                        share,
                        ballast: ballast_each,
                        gc_period: cfg.gc_period,
                        recorder,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker must not panic"))
            .collect()
    });
    let elapsed = start.elapsed();

    let transitions: u64 = worker_results.iter().map(|w| w.transitions).sum();
    let checked_events: u64 = worker_results.iter().map(|w| w.checks_executed).sum();
    let violations: u64 = worker_results.iter().map(|w| w.violations).sum();
    let shutdown_reports: usize = worker_results.iter().map(|w| w.shutdown_reports).sum();
    let worker_wall_nanos: Vec<u64> = worker_results.iter().map(|w| w.wall_nanos).collect();
    let slowest = worker_wall_nanos.iter().copied().max().unwrap_or(1).max(1);
    let fastest = worker_wall_nanos.iter().copied().min().unwrap_or(1).max(1);
    ParallelRun {
        threads,
        transitions,
        checked_events,
        violations,
        elapsed,
        events_per_sec: checked_events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        trace_events: recorders.iter().map(Recorder::total_events).sum(),
        shutdown_reports,
        worker_wall_nanos,
        fairness_spread: slowest as f64 / fastest as f64,
    }
}

struct WorkerContext {
    t: usize,
    jinn: Jinn,
    share: u64,
    ballast: usize,
    gc_period: u64,
    recorder: Recorder,
}

struct WorkerResult {
    transitions: u64,
    checks_executed: u64,
    violations: u64,
    shutdown_reports: usize,
    wall_nanos: u64,
}

fn run_worker(cx: WorkerContext) -> WorkerResult {
    let wall_start = Instant::now();
    let mut vm = Vendor::HotSpot.vm();
    vm.jvm_mut().set_auto_gc_period(Some(cx.gc_period));
    // Ballast: long-lived globals allocated *before* the session exists,
    // so the checker never sees them (no leak-sweep noise). They make
    // every copying collection cost O(ballast).
    if let Some(class) = vm.jvm().find_class("java/lang/Object") {
        for _ in 0..cx.ballast {
            let oop = vm.jvm_mut().alloc_object(class);
            vm.jvm_mut().new_global(oop);
        }
    }
    let (entry, args) = build_workload(&mut vm, 0x9e37_79b9 ^ cx.t as u64);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    session.set_recorder(cx.recorder);
    let stats = jinn_core::install_prebuilt(&mut session, cx.jinn);

    while session.vm().stats().total() < cx.share {
        let outcome = session.run_native(thread, entry, &args);
        debug_assert!(
            matches!(outcome, RunOutcome::Completed(_)),
            "workload must be bug-free: {outcome:?}"
        );
        if !matches!(outcome, RunOutcome::Completed(_)) {
            break;
        }
    }

    let transitions = session.vm().stats().total();
    let reports = session.shutdown();
    WorkerResult {
        transitions,
        checks_executed: stats.checks_executed(),
        violations: stats.violations(),
        shutdown_reports: reports.len(),
        wall_nanos: wall_start.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            transitions: 4_000,
            ballast: 256,
            gc_period: 256,
        }
    }

    #[test]
    fn single_worker_runs_clean() {
        let run = run_parallel(&small(1));
        assert!(run.transitions >= 4_000);
        assert!(run.checked_events > 0);
        assert_eq!(run.violations, 0);
        assert_eq!(run.shutdown_reports, 0);
        assert!(run.trace_events > 0);
        assert_eq!(run.worker_wall_nanos.len(), 1);
        assert!(run.fairness_spread >= 1.0);
    }

    #[test]
    fn four_workers_run_clean() {
        let run = run_parallel(&small(4));
        assert_eq!(run.threads, 4);
        assert!(run.checked_events > 0);
        assert_eq!(run.violations, 0, "workload is bug-free");
        assert_eq!(run.shutdown_reports, 0);
        assert!(run.trace_events > 0);
        assert_eq!(run.worker_wall_nanos.len(), 4);
        assert!(run.fairness_spread >= 1.0);
    }

    #[test]
    fn total_work_is_constant_across_thread_counts() {
        let one = run_parallel(&small(1));
        let four = run_parallel(&small(4));
        // Shares are floor-divided, so allow the per-worker overshoot of
        // finishing the in-flight native call.
        let lo = one.transitions.min(four.transitions) as f64;
        let hi = one.transitions.max(four.transitions) as f64;
        assert!(hi / lo < 1.10, "within 10%: {one:?} vs {four:?}");
    }
}
