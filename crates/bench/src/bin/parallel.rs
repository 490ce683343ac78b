//! Parallel checking throughput: the Table 3 workload mix on
//! 1/2/4/8/16/32/64 worker threads, each an independent `JniSession`
//! with its own `Jinn` checker, its own VM heap and its own recorder.
//! The workers share nothing: there is no shared state store and no
//! epoch sweep.
//!
//! The speedup this reports is mostly the copying collector working on
//! `ballast/N`-object heaps (a collection costs O(live heap)), not
//! checking scaling across cores; it can exceed the thread count on a
//! one-core host.
//!
//! ```text
//! cargo run --release -p jinn-bench --bin parallel
//! ```
//!
//! Writes `BENCH_parallel.json` next to the invocation directory.
//! Scale with `JINN_PARALLEL_TRANSITIONS` / `JINN_PARALLEL_BALLAST`.
//! Set `JINN_PARALLEL_MIN_SPEEDUP_8T` (in hundredths, e.g. `550` for
//! 5.50x) to make the run fail when the 8-thread speedup over the
//! single-thread baseline falls below the gate.

use jinn_bench::parallel::{run_parallel, ParallelConfig, ParallelRun};
use jinn_bench::{env_u64, render_table};

const THREAD_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn run_at(threads: usize, transitions: u64, ballast: usize) -> ParallelRun {
    run_parallel(&ParallelConfig {
        threads,
        transitions,
        ballast,
        gc_period: env_u64("JINN_PARALLEL_GC_PERIOD", 64),
    })
}

fn json_list<T, F: Fn(&ParallelRun) -> T>(runs: &[ParallelRun], f: F) -> String
where
    T: std::fmt::Display,
{
    let items: Vec<String> = runs.iter().map(|r| f(r).to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let transitions = env_u64("JINN_PARALLEL_TRANSITIONS", 60_000);
    let ballast = env_u64("JINN_PARALLEL_BALLAST", 98_304) as usize;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("Parallel Jinn: one checker, heap and recorder per worker");
    println!(
        "(total work constant across thread counts; ballast {ballast} objects; \
         host cores {host_cores})\n"
    );

    let mut runs: Vec<ParallelRun> = Vec::new();
    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let run = run_at(threads, transitions, ballast);
        assert_eq!(run.violations, 0, "workload must be bug-free");
        rows.push(vec![
            threads.to_string(),
            run.transitions.to_string(),
            run.checked_events.to_string(),
            format!("{:.1}", run.elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", run.events_per_sec),
            format!("{:.2}", run.fairness_spread),
        ]);
        runs.push(run);
    }

    let baseline = runs[0].events_per_sec;
    for (row, run) in rows.iter_mut().zip(&runs) {
        row.push(format!("{:.2}x", run.events_per_sec / baseline));
    }
    println!(
        "{}",
        render_table(
            &[
                "threads",
                "transitions",
                "checked events",
                "wall ms",
                "events/sec",
                "fairness",
                "speedup"
            ],
            &rows,
        )
    );

    let at = |n: usize| runs.iter().find(|r| r.threads == n).expect("measured");
    let speedup8 = at(8).events_per_sec / baseline;
    let speedup64 = at(64).events_per_sec / baseline;
    println!(
        "aggregate checked-events/sec: {speedup8:.2}x at 8 threads, \
         {speedup64:.2}x at 64 threads (vs single-thread baseline)"
    );

    let speedups: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.4}", r.events_per_sec / baseline))
        .collect();
    let events_per_sec: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.0}", r.events_per_sec))
        .collect();
    let fairness: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.4}", r.fairness_spread))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"parallel checking, one checker per worker (Table 3 workload mix)\",\n",
            "  \"total_transitions\": {transitions},\n",
            "  \"ballast_objects\": {ballast},\n",
            "  \"host_cores\": {host_cores},\n",
            "  \"thread_counts\": [1, 2, 4, 8, 16, 32, 64],\n",
            "  \"checked_events\": {checked},\n",
            "  \"wall_nanos\": {wall},\n",
            "  \"events_per_sec\": [{eps}],\n",
            "  \"speedup_vs_1_thread\": [{speedups}],\n",
            "  \"speedup_at_8_threads\": {s8:.4},\n",
            "  \"speedup_at_64_threads\": {s64:.4},\n",
            "  \"fairness_spread_max_over_min\": [{fairness}],\n",
            "  \"worker_wall_nanos\": {{{worker_walls}\n  }},\n",
            "  \"violations\": 0,\n",
            "  \"note\": \"each worker owns one Jinn checker (built on the driver ",
            "thread and moved in), one VM heap holding ballast/N globals and one ",
            "recorder; workers share no state store and run no epoch sweep. The ",
            "speedup is mostly the copying collector: a collection costs O(live ",
            "heap), so N heaps of ballast/N objects do about 1/N of the GC work. It ",
            "can exceed the thread count on one core and is not a scaling claim\"\n",
            "}}\n",
        ),
        transitions = transitions,
        ballast = ballast,
        host_cores = host_cores,
        checked = json_list(&runs, |r| r.checked_events),
        wall = json_list(&runs, |r| r.elapsed.as_nanos()),
        eps = events_per_sec.join(", "),
        speedups = speedups.join(", "),
        s8 = speedup8,
        s64 = speedup64,
        fairness = fairness.join(", "),
        worker_walls = runs
            .iter()
            .map(|r| {
                let walls: Vec<String> =
                    r.worker_wall_nanos.iter().map(|n| n.to_string()).collect();
                format!("\n    \"{}\": [{}]", r.threads, walls.join(", "))
            })
            .collect::<Vec<_>>()
            .join(","),
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");

    if let Ok(gate) = std::env::var("JINN_PARALLEL_MIN_SPEEDUP_8T") {
        let hundredths: u64 = gate
            .trim()
            .parse()
            .expect("JINN_PARALLEL_MIN_SPEEDUP_8T must be an integer (hundredths)");
        let min = hundredths as f64 / 100.0;
        assert!(
            speedup8 >= min,
            "8-thread speedup {speedup8:.2}x below gate {min:.2}x"
        );
        println!("8-thread speedup gate passed: {speedup8:.2}x >= {min:.2}x");
    }
}
