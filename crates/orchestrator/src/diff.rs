//! Incremental re-verification on configuration diffs — the `vericlick
//! diff` entry point.
//!
//! Given the *old* and *new* versions of a set of named pipeline configs,
//! [`crate::service::VerifyService::verify_diff`] (or serving a
//! [`crate::service::VerifyRequest::Diff`]) fingerprints both sides
//! ([`dataplane_pipeline::diff`]) and re-verifies **only** the scenarios
//! whose pipeline actually changed:
//!
//! * identical configs are skipped outright,
//! * wiring-only diffs get a composition-only pass — with a store warm from
//!   the old run the planner schedules **zero** element-exploration jobs,
//! * behaviour diffs re-explore exactly the changed element behaviours (the
//!   content-addressed store serves every unchanged one).
//!
//! The scenarios of changed configs run on the service's shared
//! scheduler exactly like a full run, so verdicts are identical to
//! verifying the new configs from scratch — only the work is smaller.

use crate::codec::to_json;
use crate::json::Json;
use crate::matrix::Scenario;
use crate::matrix::{MatrixReport, MATRIX_INSTRUCTION_BOUND};
use dataplane_pipeline::{parse_config, ConfigError};
use dataplane_verifier::Property;
use std::fmt;

/// One named pipeline configuration (Click-like text).
#[derive(Clone, Debug)]
pub struct NamedConfig {
    /// The pipeline's name (used as the scenario label).
    pub name: String,
    /// The configuration text ([`dataplane_pipeline::parse_config`] syntax).
    pub config: String,
}

impl NamedConfig {
    /// Build a named config.
    pub fn new(name: impl Into<String>, config: impl Into<String>) -> Self {
        NamedConfig {
            name: name.into(),
            config: config.into(),
        }
    }
}

/// How one named config changed between the old and new sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Nothing verification-relevant changed; no scenario re-verified.
    Identical,
    /// Only the wiring changed: scenarios re-verified composition-only
    /// (zero element jobs against a store warm from the old configs).
    WiringOnly,
    /// Element behaviour changed (edits, additions, or removals): scenarios
    /// re-verified, re-exploring only the changed behaviours.
    ElementsChanged,
    /// The config is new; all its scenarios are verified.
    Added,
}

/// The diff verdict for one named config.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// The config's name.
    pub name: String,
    /// What kind of change this config saw.
    pub kind: DiffKind,
    /// Instances whose behaviour changed (including added/removed ones).
    pub changed_elements: Vec<String>,
    /// Scenarios planned for re-verification (0 for identical configs).
    pub scenarios_planned: usize,
}

/// The result of an incremental re-verification.
pub struct DiffReport {
    /// Per-config diff verdicts, in new-set order.
    pub entries: Vec<DiffEntry>,
    /// Old config names absent from the new set (nothing to verify).
    pub removed_configs: Vec<String>,
    /// Scenarios skipped because their config was identical.
    pub skipped_scenarios: usize,
    /// The verification of the re-planned scenarios only.
    pub matrix: MatrixReport,
}

impl DiffReport {
    /// Scenarios that were re-verified.
    pub fn reverified_scenarios(&self) -> usize {
        self.matrix.scenarios.len()
    }

    /// The report's document around `matrix`, the matrix's own form.
    fn document(&self, matrix: Json) -> Json {
        crate::wire::REPORT.stamp(Json::obj([
            ("kind", Json::str("diff")),
            ("entries", to_json(&self.entries)),
            ("removed_configs", to_json(&self.removed_configs)),
            ("skipped_scenarios", to_json(&self.skipped_scenarios)),
            ("matrix", matrix),
        ]))
    }

    /// The machine-readable (operational) form of the report,
    /// schema-versioned for forward compatibility.
    pub fn to_json(&self) -> Json {
        self.document(self.matrix.to_json())
    }

    /// The deterministic form: the diff decision plus the matrix's
    /// deterministic content — byte-identical across runs and processes.
    pub fn deterministic_json(&self) -> Json {
        self.document(self.matrix.deterministic_json())
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "config diff: {} re-verified, {} skipped (identical), {} removed",
            self.reverified_scenarios(),
            self.skipped_scenarios,
            self.removed_configs.len()
        )?;
        for entry in &self.entries {
            write!(f, "  {:<20} {:?}", entry.name, entry.kind)?;
            if entry.changed_elements.is_empty() {
                writeln!(f, " ({} scenarios)", entry.scenarios_planned)?;
            } else {
                writeln!(
                    f,
                    " ({} scenarios; elements: {})",
                    entry.scenarios_planned,
                    entry.changed_elements.join(", ")
                )?;
            }
        }
        write!(f, "{}", self.matrix)
    }
}

/// The property classes verifiable for an arbitrary config without
/// per-pipeline knowledge: crash freedom and bounded per-packet execution
/// (reachability needs the delivery/drop sets, which only the preset matrix
/// encodes).
pub fn default_properties(_pipeline: &str) -> Vec<Property> {
    vec![
        Property::CrashFreedom,
        Property::BoundedInstructions {
            max_instructions: MATRIX_INSTRUCTION_BOUND,
        },
    ]
}

/// Parse each named config and instantiate `properties(name)` scenarios for
/// it (the baseline the diff is later taken against).
pub fn config_scenarios(
    configs: &[NamedConfig],
    properties: &dyn Fn(&str) -> Vec<Property>,
) -> Result<Vec<Scenario>, ConfigError> {
    let mut scenarios = Vec::new();
    for config in configs {
        for property in properties(&config.name) {
            scenarios.push(Scenario::new(
                config.name.clone(),
                parse_config(&config.config)?,
                property,
            ));
        }
    }
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_properties_cover_crash_and_bounds() {
        let properties = default_properties("any");
        assert_eq!(properties.len(), 2);
        assert!(properties
            .iter()
            .any(|p| matches!(p, Property::CrashFreedom)));
        assert!(properties
            .iter()
            .any(|p| matches!(p, Property::BoundedInstructions { .. })));
    }

    #[test]
    fn config_scenarios_propagates_parse_errors() {
        let bad = [NamedConfig::new("x", "not a config")];
        assert!(config_scenarios(&bad, &default_properties).is_err());
    }
}
