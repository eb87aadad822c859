//! `verify_cold`, staged: parse → plan (fingerprints, store misses) →
//! explore → insert → verify each scenario inline — what
//! `VerifyService::serve` does with a `Matrix` request on an empty store.
//!
//! The layer probes also walk the *decomposed* Step 2 (outline → shard
//! walk → fold), the path a fleet takes, and hold its report against the
//! inline one.

use super::{response_text, staged_matrix, Traced};
use crate::clock::{Meter, TimeSource};
use crate::harness::Workload;
use crate::trace::Trace;
use crate::workloads::verify_cold::VerifyCold;
use std::sync::Arc;
use vericlick::orchestrator::wire::report_to_json;
use vericlick::orchestrator::{
    config_scenarios, plan, preset_properties, NamedConfig, Scenario, ScenarioReport, SummaryStore,
};
use vericlick::pipeline::parse_config;
use vericlick::symbex::{explore, interval_infeasible, CancelToken, Solver};
use vericlick::verifier::{ElementSummary, Report, Verifier, VerifierOptions};

/// Steps 1 of `scenarios` on `store`, staged: plan against the store,
/// explore what it lacks, insert. Span names are prefixed `stage`.
pub fn explore_missing(
    scenarios: &[Scenario],
    options: &VerifierOptions,
    store: &SummaryStore,
    trace: &mut Trace,
    stage: [&'static str; 3],
) -> Result<Vec<Vec<vericlick::orchestrator::Fingerprint>>, String> {
    let job_plan = trace.leaf(stage[0], || plan(scenarios, options, store));
    for spec in job_plan.explore {
        let started = std::time::Instant::now();
        let exploration = trace
            .leaf(stage[1], || explore(&spec.program, &options.engine))
            .map_err(|e| format!("{}: {e}", spec.type_name))?;
        let summary = Arc::new(ElementSummary {
            type_name: spec.type_name,
            config_key: spec.config_key,
            exploration,
            explore_time: started.elapsed(),
        });
        trace.leaf(stage[2], || store.insert(spec.fingerprint, summary));
    }
    Ok(job_plan.element_fingerprints)
}

/// Verify one scenario inline, seeded from `store` — the service's
/// composition job.
pub fn verify_inline(
    scenario: &Scenario,
    fingerprints: &[vericlick::orchestrator::Fingerprint],
    options: &VerifierOptions,
    store: &SummaryStore,
) -> Report {
    let mut verifier = Verifier::with_options(options.clone());
    verifier.seed_summaries(fingerprints.iter().filter_map(|fp| store.get(*fp)));
    verifier.verify(&scenario.pipeline, &scenario.property)
}

/// The four scenarios of `config`, each parse under a span.
fn staged_scenarios(config: &NamedConfig, trace: &mut Trace) -> Result<Vec<Scenario>, String> {
    preset_properties(&config.name)
        .into_iter()
        .map(|property| {
            let pipeline = trace
                .leaf("cold.parse_config", || parse_config(&config.config))
                .map_err(|e| e.to_string())?;
            Ok(Scenario::new(config.name.clone(), pipeline, property))
        })
        .collect()
}

impl Traced for VerifyCold {
    const SIDE_OPS: usize = 2;

    fn prepare<T: TimeSource>(
        &mut self,
        meter: &mut Meter<T>,
        trace: &mut Trace,
    ) -> Result<(), String> {
        let config = self.variants()[0].clone();
        let options = VerifierOptions::default();
        let scenarios = config_scenarios(std::slice::from_ref(&config), &preset_properties)
            .map_err(|e| e.to_string())?;
        let store = SummaryStore::in_memory();
        let fingerprints = explore_missing(
            &scenarios,
            &options,
            &store,
            &mut Trace::new(),
            ["plan", "explore", "insert"],
        )?;

        // The solver and its pre-filter over every Step-1 segment's own
        // constraint: the two calls Step 2 is made of.
        let constraints: Vec<_> = fingerprints[0]
            .iter()
            .filter_map(|fp| store.get(*fp))
            .flat_map(|summary| {
                summary
                    .exploration
                    .segments
                    .iter()
                    .map(|segment| segment.constraint.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        let solver = Solver::with_config(options.solver.clone());
        trace.request(meter, |t| {
            t.batch("symbex.solver_check_us", constraints.len() as f64, || {
                for constraint in &constraints {
                    std::hint::black_box(solver.check(constraint));
                }
            });
            t.batch("symbex.prefilter_us", constraints.len() as f64, || {
                for constraint in &constraints {
                    std::hint::black_box(interval_infeasible(constraint));
                }
            });
        });

        // Step 2 the way a fleet runs it: outline, walk every unit as one
        // shard, fold — byte-identical to the inline walk or invalid.
        trace.request(meter, |t| {
            let mut units = 0;
            for (scenario, fps) in scenarios.iter().zip(&fingerprints) {
                let summaries = || fps.iter().filter_map(|fp| store.get(*fp));
                let inline = verify_inline(scenario, fps, &options, &store);
                let verifier = || Verifier::with_options(options.clone());
                let outline = t.leaf("core.outline_ms", || {
                    verifier().outline_composition(
                        &scenario.pipeline,
                        &scenario.property,
                        summaries(),
                    )
                });
                let Some(outline) = outline else {
                    // Nothing suspect: the composition is decided without
                    // Step 2, sharded or not.
                    continue;
                };
                units += outline.total_weight();
                let shard = t.leaf("core.shard_walk_ms", || {
                    verifier().decide_composition_shard(
                        &scenario.pipeline,
                        &scenario.property,
                        summaries(),
                        0,
                        outline.total_weight(),
                        &CancelToken::new(),
                    )
                });
                let folded = t.leaf("core.fold_ms", || {
                    verifier().fold_composition_shards(
                        &scenario.pipeline,
                        &scenario.property,
                        summaries(),
                        &outline,
                        shard.records,
                    )
                });
                if report_to_json(&folded).to_text() != report_to_json(&inline).to_text() {
                    return Err(format!(
                        "{}: the sharded Step 2 folds to a different report than the inline walk",
                        scenario.label()
                    ));
                }
            }
            t.value("core.outline_units", units as f64);
            Ok(())
        })
    }

    fn served_text(&self, out: &Self::Out) -> Result<String, String> {
        response_text(out)
    }

    fn replica(&mut self, index: usize, trace: &mut Trace) -> Result<String, String> {
        let config = self.variants()[index % Self::ROUND_LEN].clone();
        let options = VerifierOptions::default();
        let scenarios = staged_scenarios(&config, trace)?;
        let store = SummaryStore::in_memory();
        let fingerprints = explore_missing(
            &scenarios,
            &options,
            &store,
            trace,
            ["cold.plan", "cold.explore", "cold.insert"],
        )?;
        let mut reports = Vec::with_capacity(scenarios.len());
        let mut stats = [0usize; 6];
        for (scenario, fps) in scenarios.iter().zip(&fingerprints) {
            let report = trace.leaf("core.verify_inline_ms", || {
                verify_inline(scenario, fps, &options, &store)
            });
            let s = &report.stats;
            for (total, value) in stats.iter_mut().zip([
                s.suspects,
                s.composed_paths,
                s.solver_calls,
                s.prefilter_decided,
                s.prefilter_passed,
                s.budget_escalations,
            ]) {
                *total += value;
            }
            reports.push(ScenarioReport {
                pipeline_name: scenario.pipeline_name.clone(),
                report,
            });
        }
        trace.value("core.suspects", stats[0] as f64);
        trace.value("core.composed_paths", stats[1] as f64);
        trace.value("symbex.solver_calls", stats[2] as f64);
        trace.value(
            "symbex.prefilter_decided_ratio",
            stats[3] as f64 / (stats[3] + stats[4]).max(1) as f64,
        );
        trace.value("symbex.escalations", stats[5] as f64);
        Ok(staged_matrix(reports).deterministic_json().to_text())
    }
}
