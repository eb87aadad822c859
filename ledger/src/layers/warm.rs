//! `reverify_warm`, staged: what `VerifyService::serve` does with a
//! `Watch` tick on a warm store — parse both config sets, diff them,
//! re-instantiate the changed configs' scenarios, fingerprint their
//! elements, look the summaries up, explore the two new ones, and verify
//! eight scenarios inline (two of them temporal).
//!
//! The replica keeps a shadow store in step with the service's, so that
//! it meets the same misses and hits.

use super::cold::verify_inline;
use super::{response_text, staged_matrix, Traced};
use crate::clock::{Meter, TimeSource};
use crate::trace::Trace;
use crate::variants::EDITED;
use crate::workloads::reverify_warm::{watch_request, ReverifyWarm, Shadow};
use std::collections::BTreeSet;
use std::sync::Arc;
use vericlick::orchestrator::executor::{Pool, ThreadBudget};
use vericlick::orchestrator::{
    element_fingerprint, preset_properties, CacheStats, DiffEntry, DiffKind, DiffReport,
    Fingerprint, NamedConfig, Scenario, ScenarioReport, SummaryStore,
};
use vericlick::pipeline::{diff_pipelines, parse_config, Pipeline};
use vericlick::symbex::explore;
use vericlick::verifier::{ElementSummary, Property};

fn parse(config: &NamedConfig, trace: &mut Trace) -> Result<Pipeline, String> {
    trace
        .leaf("pipeline.parse_config_us", || parse_config(&config.config))
        .map_err(|e| format!("{}: {e}", config.name))
}

/// Explore `pipeline`'s element at `idx` and put its summary in `store`.
fn explore_into(
    pipeline: &Pipeline,
    idx: usize,
    fingerprint: Fingerprint,
    shadow: &Shadow,
    trace: &mut Trace,
) -> Result<usize, String> {
    let element = pipeline.node(idx).element.as_ref();
    let started = std::time::Instant::now();
    let exploration = trace
        .leaf("symbex.explore_us", || {
            explore(&element.model(), &shadow.options.engine)
        })
        .map_err(|e| format!("{}: {e}", element.type_name()))?;
    let summary = Arc::new(ElementSummary {
        type_name: element.type_name().to_string(),
        config_key: element.config_key(),
        exploration,
        explore_time: started.elapsed(),
    });
    let segments = summary.segment_count();
    trace.leaf("cache.insert_ns", || {
        shadow.store.insert(fingerprint, summary)
    });
    Ok(segments)
}

/// Make sure `shadow` holds every summary the edited families of `configs`
/// need, and return their fingerprints — untraced; nothing is left to
/// explore once the session is under way.
fn warm_shadow(shadow: &Shadow, configs: &[NamedConfig]) -> Result<BTreeSet<Fingerprint>, String> {
    let mut scratch = Trace::new();
    let mut fingerprints = BTreeSet::new();
    for config in configs {
        if !EDITED.iter().any(|(family, _)| *family == config.name) {
            continue;
        }
        let pipeline = parse(config, &mut scratch)?;
        for (idx, node) in pipeline.iter() {
            let fp = element_fingerprint(node.element.as_ref(), &shadow.options.engine);
            if shadow.store.get(fp).is_none() {
                explore_into(&pipeline, idx, fp, shadow, &mut scratch)?;
            }
            fingerprints.insert(fp);
        }
    }
    Ok(fingerprints)
}

/// One watch tick, staged: `old` is the rolling baseline, `new` the
/// submitted set. Returns the deterministic text of the diff report.
pub fn staged_tick(
    shadow: &Shadow,
    old: &[NamedConfig],
    new: &[NamedConfig],
    trace: &mut Trace,
) -> Result<String, String> {
    let stats_before = shadow.store.stats();
    // Diff: both sets parsed, pairwise diffed, changed configs
    // re-instantiated once per property.
    let old_pipelines = old
        .iter()
        .map(|config| parse(config, trace))
        .collect::<Result<Vec<_>, _>>()?;
    let mut entries = Vec::with_capacity(new.len());
    let mut scenarios = Vec::new();
    let mut skipped_scenarios = 0;
    for (config, old_pipeline) in new.iter().zip(&old_pipelines) {
        let pipeline = parse(config, trace)?;
        let diff = trace.leaf("pipeline.diff_us", || {
            diff_pipelines(old_pipeline, &pipeline)
        });
        let properties: Vec<Property> = preset_properties(&config.name);
        if diff.is_identical() {
            skipped_scenarios += properties.len();
            entries.push(DiffEntry {
                name: config.name.clone(),
                kind: DiffKind::Identical,
                changed_elements: Vec::new(),
                scenarios_planned: 0,
            });
            continue;
        }
        if diff.is_wiring_only() {
            return Err(format!("{}: an edit changed the wiring", config.name));
        }
        let mut changed = diff.changed;
        changed.extend(diff.added);
        changed.extend(diff.removed);
        changed.sort();
        entries.push(DiffEntry {
            name: config.name.clone(),
            kind: DiffKind::ElementsChanged,
            changed_elements: changed,
            scenarios_planned: properties.len(),
        });
        for property in properties {
            scenarios.push(Scenario::new(
                config.name.clone(),
                parse(config, trace)?,
                property,
            ));
        }
    }

    // Plan: fingerprint every element, look each distinct one up once.
    let mut seen = BTreeSet::new();
    let mut fingerprints = Vec::with_capacity(scenarios.len());
    let mut segments = 0;
    for scenario in &scenarios {
        let engine = &shadow.options.engine;
        let fps: Vec<Fingerprint> = trace.batch(
            "fingerprint.element_us",
            scenario.pipeline.len() as f64,
            || {
                scenario
                    .pipeline
                    .iter()
                    .map(|(_, node)| element_fingerprint(node.element.as_ref(), engine))
                    .collect()
            },
        );
        for (idx, fp) in fps.iter().enumerate() {
            if !seen.insert(*fp) {
                continue;
            }
            if trace
                .leaf("cache.get_ns", || shadow.store.get(*fp))
                .is_none()
            {
                segments += explore_into(&scenario.pipeline, idx, *fp, shadow, trace)?;
            }
        }
        fingerprints.push(fps);
    }
    trace.value("symbex.segments", segments as f64);

    // Compose: every scenario verified inline from the store.
    let mut reports = Vec::with_capacity(scenarios.len());
    let (mut buchi_states, mut product_states) = (0, 0);
    for (scenario, fps) in scenarios.iter().zip(&fingerprints) {
        let stage = match scenario.property {
            Property::Temporal(_) => "core.temporal_verify_ms",
            _ => "warm.verify_inline",
        };
        let report = trace.leaf(stage, || {
            verify_inline(scenario, fps, &shadow.options, &shadow.store)
        });
        buchi_states += report.stats.buchi_states;
        product_states += report.stats.product_states;
        reports.push(ScenarioReport {
            pipeline_name: scenario.pipeline_name.clone(),
            report,
        });
    }
    trace.value("temporal.buchi_states", buchi_states as f64);
    trace.value("temporal.product_states", product_states as f64);
    let lookups = CacheStats::delta(&stats_before, &shadow.store.stats());
    trace.value(
        "cache.hit_ratio",
        lookups.hits() as f64 / (lookups.hits() + lookups.misses).max(1) as f64,
    );

    Ok(DiffReport {
        entries,
        removed_configs: Vec::new(),
        skipped_scenarios,
        matrix: staged_matrix(reports),
    }
    .deterministic_json()
    .to_text())
}

/// Jobs the scheduler probe spawns.
const POOL_JOBS: usize = 256;

impl Traced for ReverifyWarm {
    const SIDE_OPS: usize = 10;

    fn prepare<T: TimeSource>(
        &mut self,
        meter: &mut Meter<T>,
        trace: &mut Trace,
    ) -> Result<(), String> {
        let next = self.tick(0).to_vec();
        trace.request(meter, |t| {
            // Planning does not roll the baseline, so this leaves the
            // session where it was.
            t.leaf("service.plan_request_us", || {
                self.service().plan_request(&watch_request(&next))
            })
            .map_err(|e| e.to_string())?;

            // What one job costs the shared scheduler, work aside.
            t.batch("executor.pool_job_us", POOL_JOBS as f64, || {
                Pool::run(1, ThreadBudget::new(1), |pool| {
                    for _ in 0..POOL_JOBS {
                        pool.spawn(Box::new(|_| {
                            std::hint::black_box(0u64);
                        }));
                    }
                });
            });

            // LTL → Büchi for the negated specs of the two edited families.
            let specs: Vec<_> = EDITED
                .iter()
                .flat_map(|(family, _)| preset_properties(family))
                .filter_map(|property| match property {
                    Property::Temporal(spec) => Some(spec),
                    _ => None,
                })
                .collect();
            t.batch("temporal.compile_us", specs.len() as f64, || {
                for spec in &specs {
                    let negated = dataplane_temporal::Ltl::Not(Box::new(spec.formula().clone()));
                    std::hint::black_box(dataplane_temporal::buchi::compile(&negated));
                }
            });
            Ok::<(), String>(())
        })?;

        // The persistent tier: write the edited families' summaries to a
        // fresh directory, then read them back through a second store.
        let shadow = Shadow::default();
        let fingerprints = warm_shadow(&shadow, &next)?;
        // Inside the build directory: in the checkout, ignored by git.
        let dir = crate::build_dir()?.join(format!("ledger-scratch-{}", std::process::id()));
        let probed = trace.request(meter, |t| {
            let disk = SummaryStore::persistent(&dir).map_err(|e| e.to_string())?;
            t.batch("cache.disk_store_ms", fingerprints.len() as f64, || {
                for fp in &fingerprints {
                    disk.insert(*fp, shadow.store.get(*fp).expect("warmed above"));
                }
            });
            let reopened = SummaryStore::persistent(&dir).map_err(|e| e.to_string())?;
            let loaded = t.batch("cache.disk_load_ms", fingerprints.len() as f64, || {
                fingerprints
                    .iter()
                    .filter(|fp| reopened.get(**fp).is_some())
                    .count()
            });
            if loaded != fingerprints.len() || reopened.stats().disk_hits != loaded as u64 {
                return Err(format!(
                    "persistent tier gave back {loaded} of {} summaries",
                    fingerprints.len()
                ));
            }
            Ok(())
        });
        // Best-effort: the directory is inside the ignored build directory.
        let _ = std::fs::remove_dir_all(&dir);
        probed
    }

    fn served_text(&self, out: &Self::Out) -> Result<String, String> {
        response_text(out)
    }

    fn replica(&mut self, index: usize, trace: &mut Trace) -> Result<String, String> {
        let old = self.previous_tick(index).to_vec();
        let new = self.tick(index).to_vec();
        warm_shadow(self.shadow(), &old)?;
        staged_tick(self.shadow(), &old, &new, trace)
    }
}
