//! Reproduces **Table 1**: JNI pitfalls × {vendor defaults, `-Xcheck:jni`
//! baselines, Jinn}.
//!
//! ```text
//! cargo run -p jinn-bench --bin table1
//! ```

use jinn_bench::{render_table, tick};
use jinn_microbench::{run_scenario, scenarios, Config};
use jinn_vendors::Vendor;

/// The paper's Table 1 expectations for the rows our microbenchmarks
/// cover: (pitfall, HotSpot, J9, HotSpot -Xcheck, J9 -Xcheck, Jinn).
const PAPER: [(u8, &str, &str, &str, &str, &str); 11] = [
    (1, "running", "crash", "warning", "error", "exception"),
    (2, "running", "crash", "running", "crash", "exception"),
    (3, "crash", "crash", "error", "error", "exception"),
    (6, "crash", "crash", "error", "error", "exception"),
    (9, "NPE", "NPE", "NPE", "NPE", "exception"),
    (11, "leak", "leak", "running", "warning", "exception"),
    (12, "leak", "leak", "running", "warning", "exception"),
    (13, "crash", "crash", "error", "error", "exception"),
    (14, "running", "crash", "error", "crash", "exception"),
    (16, "deadlock", "deadlock", "warning", "error", "exception"),
    // Pitfall 11 appears twice in our benchmarks (pin and global leak);
    // the global-leak variant is not separately tabulated by the paper.
    (11, "leak", "leak", "running", "warning", "exception"),
];

fn main() {
    println!("Table 1: JNI pitfalls — default behaviour, -Xcheck:jni, and Jinn");
    println!("(legend: running / crash / warning / error / NPE / leak / deadlock / exception)\n");

    let mut rows = Vec::new();
    let mut matches = 0usize;
    let mut cells = 0usize;
    for s in scenarios() {
        let behavior = |config| run_scenario(&s, config).behavior;
        let hs = behavior(Config::Default(Vendor::HotSpot));
        let j9 = behavior(Config::Default(Vendor::J9));
        let hsx = behavior(Config::Xcheck(Vendor::HotSpot));
        let j9x = behavior(Config::Xcheck(Vendor::J9));
        let jinn = behavior(Config::Jinn(Vendor::HotSpot));
        let pitfall = s
            .pitfall
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".to_string());
        // Compare against the paper where the row is tabulated.
        let verdict = match s.pitfall.and_then(|p| PAPER.iter().find(|row| row.0 == p)) {
            Some((_, e_hs, e_j9, e_hsx, e_j9x, e_jinn)) => {
                let got = [
                    hs.to_string(),
                    j9.to_string(),
                    hsx.to_string(),
                    j9x.to_string(),
                    jinn.to_string(),
                ];
                let want = [*e_hs, *e_j9, *e_hsx, *e_j9x, *e_jinn];
                let ok = got
                    .iter()
                    .zip(want)
                    .filter(|(g, w)| g.as_str() == *w)
                    .count();
                matches += ok;
                cells += 5;
                tick(ok == 5).to_string()
            }
            None => "extra".to_string(),
        };
        rows.push(vec![
            pitfall,
            s.name.to_string(),
            hs.to_string(),
            j9.to_string(),
            hsx.to_string(),
            j9x.to_string(),
            jinn.to_string(),
            verdict,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "pitfall",
                "microbenchmark",
                "HotSpot",
                "J9",
                "HotSpot -Xcheck",
                "J9 -Xcheck",
                "Jinn",
                "vs paper"
            ],
            &rows,
        )
    );
    println!("paper agreement: {matches}/{cells} tabulated cells match");
    println!("(pitfall 8 is deliberately absent: its bug is invisible at the language boundary,");
    println!(" and the paper's microbenchmarks exclude it too)");
}
