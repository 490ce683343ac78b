//! `jinn-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — the pitfall/behaviour matrix |
//! | `table2` | Table 2 — constraint classification counts |
//! | `table3` | Table 3 — normalized overhead on 19 benchmarks |
//! | `figure9` | Figure 9 — error messages of the three checkers |
//! | `figure10` | Figure 10 — Subversion local-reference time series |
//! | `coverage` | Section 6.3 — microbenchmark detection coverage |
//! | `casestudies` | Section 6.4 — Subversion/Java-gnome/Eclipse findings |
//! | `codegen_stats` | Section 1/4 — spec size vs generated-code size |
//! | `python_checker` | Section 7 / Figure 11 — the Python/C checker |
//! | `obs_trace` | Observability — Chrome trace + metrics exports |
//! | `obs_overhead` | Observability — recorder-off vs recorder-on cost |
//! | `parallel` | Parallel checking — events/sec at 1/2/4/8 worker threads |
//!
//! This library crate holds the shared table-rendering helpers, the
//! [`obs`] workload used by the observability binaries, and the
//! [`parallel`] multi-threaded workload driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;
pub mod parallel;

/// Renders rows as a padded ASCII table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("| {h:w$} "));
    }
    line.push('|');
    let rule: String = line
        .chars()
        .map(|c| if c == '|' { '+' } else { '-' })
        .collect();
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&line);
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(i).unwrap_or(&empty);
            line.push_str(&format!("| {cell:w$} "));
        }
        line.push('|');
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&rule);
    out.push('\n');
    out
}

/// Reads a `NAME=value` integer from the environment with a default —
/// used for experiment scale factors.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Marks agreement between the paper's expectation and the measured value.
pub fn tick(matches: bool) -> &'static str {
    if matches {
        "ok"
    } else {
        "DIFF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("| name   |"));
        assert!(t.contains("| longer | 22    |"));
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines same width"
        );
    }

    #[test]
    fn env_default() {
        assert_eq!(env_u64("JINN_BENCH_NO_SUCH_VAR", 7), 7);
    }
}
