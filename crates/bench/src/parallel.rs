//! The multi-threaded workload driver: N `JniSession`s on N OS threads.
//!
//! The paper's checkers are thread-local by construction — a `JNIEnv` is
//! only valid on its owning thread, so per-entity state naturally shards
//! by the thread that first touched the entity. This driver exercises
//! the whole concurrent stack at once:
//!
//! - one [`Jinn`] checker **per worker**, constructed on the driver
//!   thread and *moved* into the worker (`Jinn: Send` since the stats
//!   cell went atomic);
//! - one shared lock-free [`AtomicStore`] that every worker drives with
//!   its own disjoint *dense* entity keys — per-entity CAS, no shard
//!   mutexes — while the cross-thread counter must stay zero (a
//!   non-zero count is the paper's `EnvMismatch` pitfall);
//! - one shared sharded-`RwLock` heap directory that workers publish
//!   into and read across shards, pruned at epoch sweeps;
//! - one shared [`EpochParticipants`] domain: workers pin every
//!   iteration (one load + one store) and periodically run a *quiesced*
//!   leak/directory sweep — nobody parks, nobody stops the world;
//! - one enabled [`Recorder`] **per worker**: a recorder has one
//!   writer, so workers never meet on a recorder's lock.
//!
//! Each worker owns a full `Vm` (its private heap, with `ballast/N`
//! long-lived globals) and runs `transitions/N` boundary crossings of
//! the Table 3 workload mix. Total work is constant across thread
//! counts, so `checked events / wall-clock` is directly comparable.
//!
//! A note on where the speedup comes from: on a multi-core host the
//! workers overlap on real cores. On a *single*-core host (like CI
//! containers) the measured win comes from removing coordination and
//! from sharding itself — no condvar parking or wakeup storms at
//! sweeps, no mutex convoys on the store, and the copying collector's
//! cost per collection is O(live heap), so N workers each collecting a
//! heap 1/N-th the size do ~1/N-th the aggregate GC work for the same
//! number of checked events. Per-worker wall times (the fairness
//! spread) are reported so the curve's shape is interpretable either
//! way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use jinn_core::Jinn;
use jinn_fsm::{AtomicStore, TransitionId};
use jinn_obs::Recorder;
use jinn_vendors::Vendor;
use jinn_workloads::build_workload;
use minijni::{RunOutcome, Session};
use minijvm::EpochParticipants;

/// Number of shards in the shared heap directory.
pub const HEAP_SHARDS: usize = 8;

/// Per-worker live-entity window in the shared store. Keys are
/// `worker * KEYS_PER_WORKER + (iter % KEYS_PER_WORKER)`: disjoint per
/// worker and *dense*, so the store's lock-free slab path is what gets
/// measured (the old `(t << 32) | i` scheme landed every worker but the
/// first in the spill map).
pub const KEYS_PER_WORKER: u64 = 1 << 10;

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
    /// A worker runs a quiesced epoch sweep of the shared directory and
    /// store every this many native calls.
    pub safepoint_every: u64,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            threads: 1,
            transitions: 40_000,
            ballast: 8_192,
            gc_period: 512,
            safepoint_every: 1_024,
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
    /// Quiesced epoch sweeps that actually ran (no world was stopped).
    pub epoch_sweeps: u64,
    /// Largest live-entity count any leak sweep observed in the shared
    /// store (bounded by `threads * KEYS_PER_WORKER`).
    pub leak_sweep_peak: u64,
    /// Cross-shard (foreign-thread) entity touches observed by the
    /// shared store. Non-zero would be an `EnvMismatch`-class bug in
    /// the driver itself.
    pub cross_thread_uses: u64,
    /// Entities live in the shared store at the end (should be zero:
    /// every worker evicts what it acquires).
    pub store_residue: usize,
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

    // Shared concurrent stack, one of each across all workers.
    let store: Arc<AtomicStore<u64>> = Arc::new(AtomicStore::new(lifecycle_machine()));
    let acquire = store.compiled().transition_id("Acquire").expect("spec");
    let release = store.compiled().transition_id("Release").expect("spec");
    let released = store.machine().state_id("Released").expect("spec");
    let directory: Arc<Vec<RwLock<HashMap<u64, u64>>>> = Arc::new(
        (0..HEAP_SHARDS)
            .map(|_| RwLock::new(HashMap::new()))
            .collect(),
    );
    let epochs = Arc::new(EpochParticipants::new());
    let recorders: Vec<Recorder> = (0..threads).map(|_| Recorder::enabled(1 << 14)).collect();
    let cross_thread = Arc::new(AtomicU64::new(0));
    let leak_peak = Arc::new(AtomicU64::new(0));

    // Checkers are built *here*, on the driver thread, then moved into
    // the workers — the whole point of `Jinn: Send`.
    let checkers: Vec<Jinn> = (0..threads).map(|_| Jinn::new()).collect();

    let start = Instant::now();
    let worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = checkers
            .into_iter()
            .enumerate()
            .map(|(t, jinn)| {
                let store = Arc::clone(&store);
                let directory = Arc::clone(&directory);
                let epochs = Arc::clone(&epochs);
                let cross_thread = Arc::clone(&cross_thread);
                let leak_peak = Arc::clone(&leak_peak);
                let recorder = recorders[t].clone();
                scope.spawn(move || {
                    run_worker(WorkerContext {
                        t,
                        jinn,
                        share,
                        ballast: ballast_each,
                        gc_period: cfg.gc_period,
                        safepoint_every: cfg.safepoint_every,
                        store: &store,
                        acquire,
                        release,
                        released,
                        directory: &directory,
                        epochs: &epochs,
                        cross_thread: &cross_thread,
                        leak_peak: &leak_peak,
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
        epoch_sweeps: epochs.sweeps(),
        leak_sweep_peak: leak_peak.load(Ordering::Relaxed),
        cross_thread_uses: cross_thread.load(Ordering::Relaxed),
        store_residue: store.len(),
        trace_events: recorders.iter().map(Recorder::total_events).sum(),
        shutdown_reports,
        worker_wall_nanos,
        fairness_spread: slowest as f64 / fastest as f64,
    }
}

/// The per-entity machine the shared store runs: a plain acquire/release
/// resource lifecycle, one fresh entity per native call per worker.
fn lifecycle_machine() -> jinn_fsm::MachineSpec {
    use jinn_fsm::{ConstraintClass, Direction, EntityKind};
    jinn_fsm::MachineSpec::builder("bench-resource", ConstraintClass::Resource)
        .entity(EntityKind::Reference)
        .state("BeforeAcquire")
        .state("Acquired")
        .state("Released")
        .error_state("Error:Dangling", "dangling use in {function}")
        .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
            t.on(Direction::CallJavaToC, "native call")
        })
        .transition("Release", "Acquired", "Released", |t| {
            t.on(Direction::ReturnCToJava, "native return")
        })
        .build()
        .expect("static spec")
}

struct WorkerContext<'a> {
    t: usize,
    jinn: Jinn,
    share: u64,
    ballast: usize,
    gc_period: u64,
    safepoint_every: u64,
    store: &'a AtomicStore<u64>,
    acquire: TransitionId,
    release: TransitionId,
    released: jinn_fsm::StateId,
    directory: &'a [RwLock<HashMap<u64, u64>>],
    epochs: &'a EpochParticipants,
    cross_thread: &'a AtomicU64,
    leak_peak: &'a AtomicU64,
    recorder: Recorder,
}

struct WorkerResult {
    transitions: u64,
    checks_executed: u64,
    violations: u64,
    shutdown_reports: usize,
    wall_nanos: u64,
}

fn run_worker(cx: WorkerContext<'_>) -> WorkerResult {
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
    session.set_recorder(cx.recorder.clone());
    let stats = jinn_core::install_prebuilt(&mut session, cx.jinn);

    // Join the epoch domain; pinning advertises progress, and the
    // handle's drop takes this worker out of every future quiesce.
    let epoch = cx.epochs.register();

    let mut iter: u64 = 0;
    while session.vm().stats().total() < cx.share {
        let outcome = session.run_native(thread, entry, &args);
        debug_assert!(
            matches!(outcome, RunOutcome::Completed(_)),
            "workload must be bug-free: {outcome:?}"
        );
        if !matches!(outcome, RunOutcome::Completed(_)) {
            break;
        }

        // Shared store: acquire/release a fresh per-thread entity on the
        // lock-free dense path. The key space is disjoint per worker, so
        // `cross_thread` must stay None — any Some is an
        // EnvMismatch-class bug in this driver.
        let key = (cx.t as u64) * KEYS_PER_WORKER + (iter % KEYS_PER_WORKER);
        let out = cx.store.apply(cx.t as u16, &key, cx.acquire);
        if out.cross_thread.is_some() {
            cx.cross_thread.fetch_add(1, Ordering::Relaxed);
        }
        cx.store.apply(cx.t as u16, &key, cx.release);
        cx.store.evict(&key);

        // Shared heap directory: publish into one shard, read another.
        let h = key.wrapping_add(iter).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let shard = (h >> 33) as usize % cx.directory.len();
        {
            let mut map = cx.directory[shard]
                .write()
                .unwrap_or_else(|e| e.into_inner());
            map.insert(h & 0xfff, iter);
        }
        if iter.is_multiple_of(16) {
            let other = (shard + 1) % cx.directory.len();
            let map = cx.directory[other]
                .read()
                .unwrap_or_else(|e| e.into_inner());
            let _ = map.len();
        }

        // Epochs: advertise progress every iteration (one load + one
        // store); periodically take a quiesced cut and sweep — the
        // other workers keep running the whole time.
        iter += 1;
        epoch.pin();
        if iter.is_multiple_of(cx.safepoint_every) {
            epoch.quiesce(|| {
                // Leak/death sweep against the quiesced cut: sorted and
                // a pure function of the pre-epoch operation set.
                let live = cx.store.entities_not_in(cx.released).len() as u64;
                cx.leak_peak.fetch_max(live, Ordering::Relaxed);
                for s in cx.directory {
                    let mut map = s.write().unwrap_or_else(|e| e.into_inner());
                    if map.len() > 2_048 {
                        map.clear();
                    }
                }
            });
        }
    }

    // Leave the epoch domain before shutdown so sweeping peers never
    // wait on a finished worker.
    drop(epoch);
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
            safepoint_every: 64,
        }
    }

    #[test]
    fn single_worker_runs_clean() {
        let run = run_parallel(&small(1));
        assert!(run.transitions >= 4_000);
        assert!(run.checked_events > 0);
        assert_eq!(run.violations, 0);
        assert_eq!(run.cross_thread_uses, 0);
        assert_eq!(run.store_residue, 0);
        assert_eq!(run.shutdown_reports, 0);
        assert!(run.trace_events > 0);
        assert_eq!(run.worker_wall_nanos.len(), 1);
        assert!(run.fairness_spread >= 1.0);
    }

    #[test]
    fn four_workers_run_clean_and_sweep_epochs() {
        let run = run_parallel(&small(4));
        assert_eq!(run.threads, 4);
        assert!(run.checked_events > 0);
        assert_eq!(run.violations, 0, "workload is bug-free");
        assert_eq!(run.cross_thread_uses, 0, "entity keys are disjoint");
        assert_eq!(run.store_residue, 0, "every acquire is evicted");
        assert_eq!(run.shutdown_reports, 0);
        assert!(run.epoch_sweeps > 0, "epoch sweeps must actually fire");
        assert!(
            run.leak_sweep_peak <= 4 * KEYS_PER_WORKER,
            "leak sweep bounded by the live window: {run:?}"
        );
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
