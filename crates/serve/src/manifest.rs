//! The manifest audit: a tenant's declared call-site set.
//!
//! A tenant *declares* its workload manifest (the `Manifest` ingest
//! frame / [`crate::DaemonHandle::declare_manifest`]): the JNI
//! functions its native code can call. The daemon keeps the declared
//! set and acks it with a [`ManifestSummary`] from the static discharge
//! pass (`jinn_core::discharge`): what the declared workload could
//! never trigger.
//!
//! The manifest is an audit only. Verdicts come from replaying the
//! trace under the full checker stack, and rollups from the daemon's
//! one compiled machine set, whatever the tenant declared. A session whose trace
//! calls a function outside its tenant's declared set is flagged
//! (`SessionStats::outside_manifest`), so a lying manifest is visible,
//! never trusted.

use std::collections::BTreeSet;

use jinn_core::{discharge, WorkloadManifest};

use crate::json::{self, JsonObj};
use crate::judge::audit_machines;

/// What a manifest declaration did — the ack surfaced to the client.
#[derive(Debug, Clone)]
pub struct ManifestSummary {
    /// The tenant the manifest now applies to.
    pub tenant: String,
    /// Callable functions in the manifest.
    pub functions: u64,
    /// Manifest entries unknown to the JNI registry. Kept callable and
    /// reported — a misspelled manifest weakens discharge, it does not
    /// fail the declaration.
    pub unknown_functions: Vec<String>,
    /// Transitions across all machines.
    pub total_transitions: u64,
    /// Transitions the declared workload can never trigger.
    pub discharged: u64,
    /// Machines the declared workload can never move.
    pub inactive_machines: Vec<String>,
    /// Machines the declared workload can move.
    pub active_machines: u64,
    /// Whether this declaration replaced an earlier manifest for the
    /// tenant.
    pub replaced: bool,
}

impl ManifestSummary {
    /// Runs the discharge pass for `tenant`'s declared `functions`.
    pub(crate) fn audit(
        tenant: &str,
        functions: &BTreeSet<String>,
        replaced: bool,
    ) -> ManifestSummary {
        let manifest = WorkloadManifest::new(tenant, functions.iter().map(String::as_str));
        let report = discharge(audit_machines(), &manifest);
        let inactive_machines: Vec<String> = report
            .inactive_machines()
            .iter()
            .map(|m| m.to_string())
            .collect();
        ManifestSummary {
            tenant: tenant.to_string(),
            functions: functions.len() as u64,
            unknown_functions: manifest.unknown_functions().to_vec(),
            total_transitions: report.total_transitions() as u64,
            discharged: report.total_discharged() as u64,
            active_machines: (report.machines.len() - inactive_machines.len()) as u64,
            inactive_machines,
            replaced,
        }
    }

    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("tenant", &self.tenant)
            .num("functions", self.functions)
            .raw(
                "unknown_functions",
                json::list(self.unknown_functions.iter().map(|f| json::escape(f))),
            )
            .num("total_transitions", self.total_transitions)
            .num("discharged", self.discharged)
            .raw(
                "inactive_machines",
                json::list(self.inactive_machines.iter().map(|m| json::escape(m))),
            )
            .num("active_machines", self.active_machines)
            .bool("replaced", self.replaced)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Daemon, ServeConfig};

    #[test]
    fn table3_manifest_audit_discharges_whole_machines() {
        let functions: BTreeSet<String> = jinn_workloads::TABLE3_CALLED_FUNCTIONS
            .iter()
            .map(|f| f.to_string())
            .collect();
        let summary = ManifestSummary::audit("table3-mix", &functions, false);
        // Pinned by DISCHARGE_bench.json: monitor and critical-section
        // are fully inactive for this mix.
        let inactive = &summary.inactive_machines;
        assert!(inactive.iter().any(|m| m == "critical-section"));
        assert!(inactive.iter().any(|m| m == "monitor"));
        assert_eq!(
            summary.active_machines as usize + inactive.len(),
            jinn_spec::machines().len()
        );
        assert!(summary.discharged > 0);
        assert!(summary.unknown_functions.is_empty());
    }

    #[test]
    fn redeclaration_replaces_and_unknown_functions_survive() {
        let daemon = Daemon::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let handle = daemon.handle();
        let first = handle
            .declare_manifest("t", &["NewGlobalRef".to_string()])
            .expect("declare");
        assert!(!first.replaced);
        let second = handle
            .declare_manifest(
                "t",
                &["NewGlobalRef".to_string(), "NotARealJniFn".to_string()],
            )
            .expect("redeclare");
        assert!(second.replaced);
        assert_eq!(second.unknown_functions, vec!["NotARealJniFn".to_string()]);
        assert_eq!(second.functions, 2);
        daemon.shutdown();
    }
}
