//! Counterexample replay: the differential check on `Violated` verdicts.
//!
//! The symbolic verifier attaches a concrete witness packet to every
//! violation. Replay pushes each witness through a *fresh*
//! [`dataplane_pipeline::ModelRuntime`] and checks that the concrete run
//! really violates the property the verdict claims — a mismatch means the
//! verifier's composition and the element models disagree (a soundness
//! bug), and the conformance run fails loudly with both the symbolic and
//! the concrete trace.

use super::report::ReplayOutcome;
use crate::codec::{member, text};
use crate::json::Json;
use crate::matrix::{preset_pipelines, preset_properties};
use crate::wire::{malformed, report_from_json, WireError, REPORT};
use dataplane_net::Packet;
use dataplane_pipeline::{model_run_fresh, Disposition, ModelRun, Pipeline};
use dataplane_verifier::{run_violates_property, Report, Verdict};
use std::time::Duration;

/// The disposition's wire name.
pub(crate) fn disposition_kind(disposition: &Disposition) -> &'static str {
    match disposition {
        Disposition::Exited { .. } => "exited",
        Disposition::Dropped { .. } => "dropped",
        Disposition::Crashed { .. } => "crashed",
    }
}

/// Instance name of the element the run terminated at.
pub(crate) fn disposition_element(pipeline: &Pipeline, disposition: &Disposition) -> String {
    let at = match disposition {
        Disposition::Exited { at, .. }
        | Disposition::Dropped { at }
        | Disposition::Crashed { at, .. } => *at,
    };
    pipeline.node(at).name.clone()
}

/// Element-name trace of a model run.
pub(crate) fn hop_names(pipeline: &Pipeline, run: &ModelRun) -> Vec<String> {
    run.hops
        .iter()
        .map(|&hop| pipeline.node(hop).name.clone())
        .collect()
}

/// Replay every counterexample of a (violated) report against `pipeline`.
/// Reports with other verdicts have no counterexamples and produce no
/// outcomes.
pub fn replay_report(
    pipeline: &Pipeline,
    pipeline_name: &str,
    report: &Report,
) -> Vec<ReplayOutcome> {
    if report.verdict != Verdict::Violated {
        return Vec::new();
    }
    report
        .counterexamples
        .iter()
        .map(|ce| {
            let run = model_run_fresh(pipeline, Packet::from_bytes(ce.packet.clone()));
            ReplayOutcome {
                scenario: pipeline_name.to_string(),
                property: report.property.name(),
                description: ce.description.clone(),
                symbolic_path: ce.path.clone(),
                packet: ce.packet.clone(),
                reproduced: run_violates_property(pipeline, &report.property, &ce.packet, &run),
                disposition: disposition_kind(&run.disposition).to_string(),
                at: disposition_element(pipeline, &run.disposition),
                instructions: run.instructions,
                concrete_path: hop_names(pipeline, &run),
            }
        })
        .collect()
}

/// Replay every counterexample of a saved deterministic matrix document
/// (`vericlick run --matrix --det-json …`).
///
/// The deterministic form carries no config text, so pipelines are
/// rebuilt from the preset table by name — a scenario naming a non-preset
/// pipeline is an error (re-run the matrix in-process to replay custom
/// configs).
pub fn replay_matrix_json(doc: &Json) -> Result<Vec<ReplayOutcome>, WireError> {
    REPORT.check(doc)?;
    let kind = text(doc, "kind")?;
    if kind != "matrix" {
        return Err(malformed(format!(
            "conformance replays matrix documents, got kind '{kind}'"
        )));
    }
    let mut outcomes = Vec::new();
    let scenarios = member(doc, "scenarios")?.as_arr();
    for scenario in scenarios.ok_or_else(|| malformed("field 'scenarios' is not an array"))? {
        let name = text(scenario, "pipeline")?;
        let report_json = member(scenario, "report")?;
        let property_name = text(report_json, "property")?;
        let make = preset_pipelines()
            .into_iter()
            .find(|(preset, _)| *preset == name)
            .map(|(_, make)| make)
            .ok_or_else(|| {
                malformed(format!(
                    "scenario '{name}' is not a preset pipeline; replay needs the preset table \
                     to rebuild pipelines from a deterministic report"
                ))
            })?;
        let property = preset_properties(name)
            .into_iter()
            .find(|p| p.name() == property_name)
            .ok_or_else(|| {
                malformed(format!(
                    "scenario '{name}' reports property '{property_name}', which is not in its \
                     preset property table"
                ))
            })?;
        let report = report_from_json(report_json, property, Duration::ZERO)?;
        outcomes.extend(replay_report(&make(), name, &report));
    }
    Ok(outcomes)
}
