//! Monotonic counters and log₂-bucketed latency histograms.
//!
//! The registry is keyed three ways: per JNI function (call counts and
//! latency), per state machine (applied / not-applicable / error
//! transition counts), and by free-form named counters for everything
//! else (GC runs, safepoints, pins, checker invocations). Everything is
//! plain integer arithmetic — snapshotting is a clone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: one per power of two a `u64` value can
/// fall into, plus a zero bucket.
pub const BUCKETS: usize = 65;

/// A power-of-two latency histogram.
///
/// Bucket 0 holds zero values; bucket `i` (1-based) holds values `v` with
/// `2^(i-1) <= v < 2^i`, i.e. `i = 64 - v.leading_zeros()`. Recording is
/// one `leading_zeros` and an increment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `i` covers.
    ///
    /// Bucket 0 covers only zero; the last bucket's upper bound saturates
    /// at `u64::MAX`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 1),
            i if i >= BUCKETS - 1 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0..=1.0`) of recorded values, or `None` if empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Histogram::bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-JNI-function metrics: call count, failure count, latency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncMetrics {
    /// Completed calls.
    pub calls: u64,
    /// Calls that ended in an error.
    pub failures: u64,
    /// Call latency in nanoseconds.
    pub latency: Histogram,
}

impl FuncMetrics {
    /// Folds another function's worth of metrics into this one.
    pub fn merge(&mut self, other: &FuncMetrics) {
        self.calls += other.calls;
        self.failures += other.failures;
        self.latency.merge(&other.latency);
    }
}

/// Per-state-machine metrics: transition outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineMetrics {
    /// Transitions that moved an entity to a non-error state.
    pub applied: u64,
    /// Transitions whose source state did not match.
    pub not_applicable: u64,
    /// Transitions that entered an error state (detected bugs).
    pub errors: u64,
}

impl MachineMetrics {
    /// All transition attempts.
    pub fn total(&self) -> u64 {
        self.applied + self.not_applicable + self.errors
    }

    /// Folds another machine's worth of counts into this one.
    pub fn merge(&mut self, other: &MachineMetrics) {
        self.applied += other.applied;
        self.not_applicable += other.not_applicable;
        self.errors += other.errors;
    }
}

/// The live registry behind a recorder. Mutated in place; snapshot by
/// cloning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    jni: BTreeMap<String, FuncMetrics>,
    machines: BTreeMap<String, MachineMetrics>,
    counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one completed JNI call.
    pub fn jni_call(&mut self, func: &str, nanos: u64, failed: bool) {
        let m = match self.jni.get_mut(func) {
            Some(m) => m,
            None => self.jni.entry(func.to_owned()).or_default(),
        };
        m.calls += 1;
        if failed {
            m.failures += 1;
        }
        m.latency.record(nanos);
    }

    /// Merges a pre-aggregated block of per-function metrics under
    /// `func` (used when a recorder resolves its id-keyed store).
    pub fn merge_jni(&mut self, func: &str, block: &FuncMetrics) {
        match self.jni.get_mut(func) {
            Some(m) => m.merge(block),
            None => {
                self.jni.insert(func.to_owned(), block.clone());
            }
        }
    }

    /// Merges a pre-aggregated block of per-machine metrics.
    pub fn merge_machine(&mut self, machine: &str, block: &MachineMetrics) {
        match self.machines.get_mut(machine) {
            Some(m) => m.merge(block),
            None => {
                self.machines.insert(machine.to_owned(), *block);
            }
        }
    }

    /// Records one FSM transition outcome for `machine`.
    pub fn fsm(&mut self, machine: &str, outcome: crate::event::FsmOutcome) {
        let m = match self.machines.get_mut(machine) {
            Some(m) => m,
            None => self.machines.entry(machine.to_owned()).or_default(),
        };
        match outcome {
            crate::event::FsmOutcome::Moved => m.applied += 1,
            crate::event::FsmOutcome::NotApplicable => m.not_applicable += 1,
            crate::event::FsmOutcome::Error => m.errors += 1,
        }
    }

    /// Bumps a named counter by `delta`.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Per-function metrics, sorted by function name.
    pub fn jni_functions(&self) -> impl Iterator<Item = (&str, &FuncMetrics)> {
        self.jni.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Per-machine metrics, sorted by machine name.
    pub fn machines(&self) -> impl Iterator<Item = (&str, &MachineMetrics)> {
        self.machines.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Named counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// A named counter's value (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total JNI calls across all functions.
    pub fn total_jni_calls(&self) -> u64 {
        self.jni.values().map(|m| m.calls).sum()
    }

    /// Total FSM transition attempts across all machines.
    pub fn total_fsm_transitions(&self) -> u64 {
        self.machines.values().map(|m| m.total()).sum()
    }
}

/// How complete the trace ring's view of the workload is.
///
/// `recorded` counts events that reached a ring; `ring_dropped` counts
/// recorded events later evicted by wraparound. Every event is
/// recorded, so a timeline is complete exactly when nothing was
/// evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Events written into the trace rings (including later-evicted).
    pub recorded: u64,
    /// Recorded events since evicted by ring wraparound.
    pub ring_dropped: u64,
}

/// A point-in-time copy of the registry, taken by [`crate::Recorder::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Microseconds since the recorder was created.
    pub taken_at_micros: u64,
    /// The copied registry.
    pub metrics: MetricsRegistry,
    /// Trace-ring coverage accounting.
    pub coverage: Coverage,
}

impl Snapshot {
    /// Renders the snapshot as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics snapshot at +{}us", self.taken_at_micros);
        let _ = writeln!(
            out,
            "\njni functions ({} total calls):",
            self.metrics.total_jni_calls()
        );
        let _ = writeln!(
            out,
            "  {:<32} {:>9} {:>9} {:>12} {:>12} {:>12}",
            "function", "calls", "failures", "p50<=ns", "p99<=ns", "max ns"
        );
        for (name, m) in self.metrics.jni_functions() {
            let _ = writeln!(
                out,
                "  {:<32} {:>9} {:>9} {:>12} {:>12} {:>12}",
                name,
                m.calls,
                m.failures,
                m.latency.quantile_upper_bound(0.5).unwrap_or(0),
                m.latency.quantile_upper_bound(0.99).unwrap_or(0),
                m.latency.max().unwrap_or(0),
            );
        }
        let _ = writeln!(
            out,
            "\nstate machines ({} total transitions):",
            self.metrics.total_fsm_transitions()
        );
        let _ = writeln!(
            out,
            "  {:<32} {:>9} {:>9} {:>9}",
            "machine", "applied", "n/a", "errors"
        );
        for (name, m) in self.metrics.machines() {
            let _ = writeln!(
                out,
                "  {:<32} {:>9} {:>9} {:>9}",
                name, m.applied, m.not_applicable, m.errors
            );
        }
        let _ = writeln!(out, "\ncounters:");
        for (name, value) in self.metrics.counters() {
            let _ = writeln!(out, "  {name:<42} {value:>9}");
        }
        let _ = writeln!(
            out,
            "\ntrace coverage: {} recorded, {} ring-dropped",
            self.coverage.recorded, self.coverage.ring_dropped,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FsmOutcome;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(1025), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every value v sits inside bucket_bounds(bucket_of(v)).
        for v in [0u64, 1, 2, 3, 7, 8, 255, 256, 1 << 40, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_of(v));
            assert!(lo <= v, "lo {lo} > v {v}");
            assert!(v < hi || hi == u64::MAX, "v {v} >= hi {hi}");
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile_upper_bound(0.5), None);
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.mean(), Some(25.0));
        // p50 of {10,20,30,40}: rank 2 lands in bucket_of(20)=5 → bound 32.
        assert_eq!(h.quantile_upper_bound(0.5), Some(32));
        assert_eq!(h.quantile_upper_bound(1.0), Some(64));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(500));
    }

    #[test]
    fn registry_keys_and_totals() {
        let mut r = MetricsRegistry::new();
        r.jni_call("GetObjectClass", 120, false);
        r.jni_call("GetObjectClass", 80, true);
        r.jni_call("NewStringUTF", 300, false);
        r.fsm("local-reference", FsmOutcome::Moved);
        r.fsm("local-reference", FsmOutcome::NotApplicable);
        r.fsm("pinning", FsmOutcome::Error);
        r.add("gc.collections", 2);
        r.add("gc.collections", 1);

        assert_eq!(r.total_jni_calls(), 3);
        assert_eq!(r.total_fsm_transitions(), 3);
        assert_eq!(r.counter("gc.collections"), 3);
        assert_eq!(r.counter("missing"), 0);
        let jni: Vec<_> = r.jni_functions().collect();
        assert_eq!(jni[0].0, "GetObjectClass");
        assert_eq!(jni[0].1.calls, 2);
        assert_eq!(jni[0].1.failures, 1);
        let machines: Vec<_> = r.machines().collect();
        assert_eq!(
            machines[0],
            (
                "local-reference",
                &MachineMetrics {
                    applied: 1,
                    not_applicable: 1,
                    errors: 0
                }
            )
        );
        assert_eq!(machines[1].1.errors, 1);
    }

    #[test]
    fn snapshot_renders_all_sections() {
        let mut r = MetricsRegistry::new();
        r.jni_call("DeleteLocalRef", 50, false);
        r.fsm("local-reference", FsmOutcome::Moved);
        r.add("checks.pre", 7);
        let snap = Snapshot {
            taken_at_micros: 42,
            metrics: r,
            coverage: Coverage::default(),
        };
        let text = snap.render();
        assert!(text.contains("DeleteLocalRef"));
        assert!(text.contains("local-reference"));
        assert!(text.contains("checks.pre"));
        assert!(text.contains("+42us"));
        assert!(text.contains("trace coverage:"), "{text}");
    }

    #[test]
    fn ring_drops_are_counted_in_renders() {
        let snap = Snapshot {
            taken_at_micros: 1,
            metrics: MetricsRegistry::new(),
            coverage: Coverage {
                recorded: 10,
                ring_dropped: 3,
            },
        };
        assert!(snap
            .render()
            .contains("trace coverage: 10 recorded, 3 ring-dropped"));
    }
}
