//! Differential verdict checking: replay one trace under N checker
//! configurations and diff the verdicts — the mechanism behind the
//! Table 1 matrix and Figure 9's three-way disagreement.

use jinn_microbench::{standard_configs, Config};

use crate::format::TraceError;
use crate::reader::Trace;
use crate::replay::{replay_trace, ReplayOutcome};

/// The result of replaying one trace under several configurations.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The recorded program's name.
    pub program: String,
    /// One outcome per configuration, in the order given.
    pub outcomes: Vec<ReplayOutcome>,
}

impl DiffReport {
    /// `true` when every configuration produced the same behaviour.
    pub fn agree(&self) -> bool {
        self.outcomes
            .windows(2)
            .all(|w| w[0].behavior == w[1].behavior)
    }

    /// The number of distinct behaviours observed.
    pub fn distinct_behaviors(&self) -> usize {
        let mut seen = Vec::new();
        for o in &self.outcomes {
            if !seen.contains(&o.behavior) {
                seen.push(o.behavior);
            }
        }
        seen.len()
    }

    /// Renders the verdict table as aligned text.
    pub fn render(&self) -> String {
        let width = self
            .outcomes
            .iter()
            .map(|o| o.label.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = format!("{}:\n", self.program);
        for o in &self.outcomes {
            out.push_str(&format!(
                "  {:<width$}  {}\n",
                o.label,
                o.verdict_signature(),
            ));
        }
        out.push_str(&format!(
            "  => {}\n",
            if self.agree() {
                "all configurations agree".to_string()
            } else {
                format!("{}-way disagreement", self.distinct_behaviors())
            }
        ));
        out
    }
}

/// Replays a parsed trace under the given configurations.
///
/// # Errors
///
/// As for [`replay_trace`].
pub fn diff_trace(trace: &Trace, configs: &[Config]) -> Result<DiffReport, TraceError> {
    let mut outcomes = Vec::with_capacity(configs.len());
    for config in configs {
        outcomes.push(replay_trace(trace, config)?);
    }
    Ok(DiffReport {
        program: trace.program().to_string(),
        outcomes,
    })
}

/// Replays trace bytes under the five standard Table 1 configurations.
///
/// # Errors
///
/// As for [`Trace::parse`] and [`replay_trace`].
pub fn diff_standard(bytes: &[u8]) -> Result<DiffReport, TraceError> {
    let trace = Trace::parse(bytes)?;
    diff_trace(&trace, &standard_configs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{program_by_name, record_program};
    use jinn_microbench::Behavior;
    use jinn_vendors::Vendor;

    #[test]
    fn exception_state_reproduces_figure_9_disagreement() {
        // Figure 9 (Sec 6.3): the pending-exception microbenchmark makes
        // HotSpot -Xcheck warn, J9 -Xcheck abort the VM, and Jinn throw —
        // a three-way disagreement reproduced from the trace alone.
        let p = program_by_name("ExceptionState").expect("pitfall 1 scenario");
        let bytes = record_program(&p);
        let trace = crate::reader::Trace::parse(&bytes).unwrap();
        let report = diff_trace(
            &trace,
            &[
                Config::Xcheck(Vendor::HotSpot),
                Config::Xcheck(Vendor::J9),
                Config::Jinn(Vendor::HotSpot),
            ],
        )
        .unwrap();
        assert_eq!(report.outcomes[0].behavior, Behavior::Warning, "{report:?}");
        assert_eq!(report.outcomes[1].behavior, Behavior::Error, "{report:?}");
        assert_eq!(
            report.outcomes[2].behavior,
            Behavior::JinnException,
            "{report:?}"
        );
        assert_eq!(report.distinct_behaviors(), 3);
        assert!(!report.agree());
        assert!(report.render().contains("3-way disagreement"));
    }
}
