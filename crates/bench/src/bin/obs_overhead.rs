//! Measures the cost of the observability recorder on a JNI-heavy
//! workload: recorder disabled (the production default) vs recorder
//! enabled with the default ring.
//!
//! ```text
//! cargo run --release -p jinn-bench --bin obs_overhead
//! JINN_CALLS=500 JINN_TRIALS=7 cargo run --release -p jinn-bench --bin obs_overhead
//! JINN_OBS_MAX_OVERHEAD=1.5 cargo run --release -p jinn-bench --bin obs_overhead
//! ```
//!
//! Prints a JSON document (the `BENCH_obs_overhead.json` artifact) on
//! stdout. `JINN_WARMUP` full-scale warm-up trials of *each* treatment
//! run first and are excluded from the medians (JIT-free Rust still
//! needs its allocator, page tables, and branch predictors warm). Each
//! measured trial runs both treatments back to back, alternating which
//! goes first, and yields one enabled/disabled ratio; the reported
//! overhead is the median of those ratios, so one slow trial or a drift
//! that favours whichever treatment runs second cannot decide it. The
//! noise is the spread of those same ratios: their interquartile range
//! over their median, which does not grow with the trial count the way
//! a max/min range does. If it exceeds `JINN_MAX_NOISE` the run aborts
//! without printing an artifact — a noisy artifact is worse than none.
//! If `JINN_OBS_MAX_OVERHEAD` is set, the run fails when the median
//! ratio exceeds it — the CI regression gate.

use jinn_bench::env_u64;
use jinn_bench::obs::{median_nanos, time_churn};
use jinn_obs::{Recorder, DEFAULT_RING_CAPACITY};

fn main() {
    let calls = env_u64("JINN_CALLS", 200) as u32;
    let strings = env_u64("JINN_STRINGS", 64) as u32;
    let trials = (env_u64("JINN_TRIALS", 5) as usize).max(1);
    let warmup = env_u64("JINN_WARMUP", 2) as usize;
    let max_noise = std::env::var("JINN_MAX_NOISE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.5);
    let gate = std::env::var("JINN_OBS_MAX_OVERHEAD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());

    // Warm-up at full scale, both treatments, excluded from measurement.
    for _ in 0..warmup {
        time_churn(Recorder::disabled(), calls, strings);
        time_churn(Recorder::enabled(DEFAULT_RING_CAPACITY), calls, strings);
    }

    let mut disabled = Vec::with_capacity(trials);
    let mut enabled = Vec::with_capacity(trials);
    for trial in 0..trials {
        let off = || time_churn(Recorder::disabled(), calls, strings).as_nanos();
        let on = || time_churn(Recorder::enabled(DEFAULT_RING_CAPACITY), calls, strings).as_nanos();
        let (d, e) = if trial % 2 == 0 {
            let d = off();
            (d, on())
        } else {
            let e = on();
            (off(), e)
        };
        disabled.push(d);
        enabled.push(e);
    }
    let med_off = median_nanos(disabled.clone());
    let med_on = median_nanos(enabled.clone());
    let mut ratios: Vec<f64> = enabled
        .iter()
        .zip(&disabled)
        .map(|(&e, &d)| e as f64 / d as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    // The upper middle for an even count, as `median_nanos` takes.
    let ratio = ratios[ratios.len() / 2];
    // Quartiles by rank, symmetric about the median: the whole range
    // for three trials, the middle five of nine.
    let q = (ratios.len() - 1) / 4;
    let noise = (ratios[ratios.len() - 1 - q] - ratios[q]) / ratio;
    assert!(
        noise <= max_noise,
        "per-trial ratio spread {noise:.4} exceeds JINN_MAX_NOISE={max_noise}: \
         the machine is too noisy for a trustworthy artifact; re-run \
         (or raise JINN_MAX_NOISE if a rough number is acceptable)"
    );

    let list = |samples: &[u128]| {
        samples
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("{{");
    println!(
        "  \"benchmark\": \"jni-churn (strings across the JNI seam, Jinn checker attached)\","
    );
    println!("  \"native_calls_per_trial\": {calls},");
    println!("  \"jni_roundtrips_per_call\": {strings},");
    println!("  \"trials\": {trials},");
    println!("  \"warmup_trials_excluded\": {warmup},");
    println!("  \"ring_capacity\": {DEFAULT_RING_CAPACITY},");
    println!("  \"recorder_disabled_nanos\": [{}],", list(&disabled));
    println!("  \"recorder_enabled_nanos\": [{}],", list(&enabled));
    println!("  \"median_disabled_nanos\": {med_off},");
    println!("  \"median_enabled_nanos\": {med_on},");
    let ratio_list: Vec<String> = ratios.iter().map(|r| format!("{r:.4}")).collect();
    println!(
        "  \"per_trial_ratios_sorted\": [{}],",
        ratio_list.join(", ")
    );
    println!("  \"enabled_over_disabled\": {ratio:.4},");
    println!("  \"trial_noise_spread\": {noise:.4},");
    println!(
        "  \"enabled_within_noise\": {},",
        (ratio - 1.0).abs() <= noise
    );
    println!(
        "  \"note\": \"the disabled recorder (the default) adds one Option branch per \
         instrumentation site; enabled, every site takes the recorder's one uncontended \
         lock and writes a fixed-width record into its one ring by pre-interned label id\""
    );
    println!("}}");

    if let Some(max) = gate {
        assert!(
            ratio <= max,
            "median enabled/disabled overhead {ratio:.4} exceeds the \
             JINN_OBS_MAX_OVERHEAD={max} gate"
        );
        eprintln!("overhead gate: {ratio:.4} <= {max} ok");
    }
}
