//! `benchmark compare DIR_A DIR_B`: judges saved runs of a change (B)
//! against saved runs of its parent (A), per workload and end-to-end
//! metric, with the bounds `BENCHMARK.json` fixes.
//!
//! Each directory holds one subdirectory per workload, and in it one
//! file per run: the run's standard output (its last line is the result
//! object). Runs pair up in file-name order.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// The benchmark definition, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better: over at least ten pairs it wins nine tenths of them,
    /// and its median beats A's by more than A's interquartile range.
    Gain,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, and not every run
    /// of B beats every run of A.
    Unresolved,
    /// Within the bound, and no gain shown.
    NoChange,
}

/// Fewest pairs a gain can rest on. Runs of the two sides should
/// alternate, so that the host's drift lands on both.
const MIN_PAIRS_FOR_GAIN: usize = 10;

/// Applies the pairs rule to one metric's runs. `a` and `b` pair up by
/// index; `lower_is_better` orients every comparison.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let worse_share = if lower_is_better {
        (bm - am) / am.abs()
    } else {
        (am - bm) / am.abs()
    };
    if worse_share > bound {
        return Verdict::Regression;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    if pairs >= MIN_PAIRS_FOR_GAIN
        && better(bm, am)
        && wins * 10 >= pairs * 9
        && (bm - am).abs() > a3 - a1
    {
        return Verdict::Gain;
    }
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    let b_always_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::NoChange
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    doc.get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Declared {
                name: s("name")?.to_string(),
                unit: s("unit")?.to_string(),
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, in file-name order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut workloads: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .collect();
    workloads.sort_by_key(std::fs::DirEntry::file_name);
    for w in workloads {
        let mut files: Vec<_> = std::fs::read_dir(w.path())
            .map_err(|e| format!("{}: {e}", w.path().display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        let metrics = runs
            .entry(w.file_name().to_string_lossy().into_owned())
            .or_default();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let last = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .ok_or_else(|| format!("{}: empty", f.display()))?;
            let result = json::parse(last).map_err(|e| format!("{}: {e}", f.display()))?;
            for (name, m) in result.get("metrics").map(Json::fields).unwrap_or_default() {
                if let Some(v) = m.get("value").and_then(Json::num) {
                    metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison table; `Ok(false)` when any metric regressed.
///
/// # Errors
///
/// Unreadable directories or run files.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let declared = declared()?;
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut regressed = false;
    println!(
        "{:<15} {:<17} {:>30} {:>30} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "wins", "bound"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload:<15} missing from {}", dir_b.display());
            continue;
        };
        for d in &declared {
            let (Some(av), Some(bv)) = (a_metrics.get(&d.name), b_metrics.get(&d.name)) else {
                continue;
            };
            let verdict = judge(av, bv, d.lower_is_better, d.bound);
            regressed |= verdict == Verdict::Regression;
            let show = |v: &[f64]| {
                quartiles(v).map_or_else(
                    || format!("{:.4} (1 run)", median(v)),
                    |(q1, m, q3)| format!("{m:.4} [{q1:.4}, {q3:.4}]"),
                )
            };
            let change = (median(bv) - median(av)) / median(av).abs() * 100.0;
            let better = |x: f64, y: f64| if d.lower_is_better { x < y } else { x > y };
            let wins = av.iter().zip(bv).filter(|(x, y)| better(**y, **x)).count();
            println!(
                "{workload:<15} {:<17} {:>30} {:>30} {change:>+7.2}% {:>6} {:>6}  {verdict:?}",
                format!("{} ({})", d.name, d.unit),
                show(av),
                show(bv),
                format!("{wins}/{}", av.len().min(bv.len())),
                d.bound,
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_show_no_change() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        assert_eq!(judge(&a, &a, true, 0.1), Verdict::NoChange);
    }

    #[test]
    fn a_consistent_clear_improvement_is_a_gain() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::Gain);
        // Higher-is-better metrics flip the orientation.
        let up: Vec<f64> = a.iter().map(|x| x * 1.25).collect();
        assert_eq!(judge(&a, &up, false, 0.1), Verdict::Gain);
        assert_eq!(judge(&a, &up, true, 0.1), Verdict::Regression);
    }

    #[test]
    fn a_gain_needs_nine_in_ten_pair_wins() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let mut b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        b[0] = 11.0;
        b[1] = 11.0; // two of ten pairs lost
        assert_eq!(judge(&a, &b, true, 0.25), Verdict::NoChange);
        b[1] = 8.0; // one of ten lost
        assert_eq!(judge(&a, &b, true, 0.25), Verdict::Gain);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0];
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&a, &b, true, 0.25), Verdict::NoChange);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1.15).collect();
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::Regression);
        assert_eq!(judge(&a, &b, true, 0.2), Verdict::NoChange);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0];
        let b = [6.0, 14.0, 9.0, 11.0, 10.5, 7.0, 13.0];
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::Unresolved);
        // Unless every run of B beats every run of A.
        let far = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        assert_ne!(judge(&a, &far, true, 0.1), Verdict::Unresolved);
    }
}
