//! The monolithic baseline: whole-pipeline symbolic execution without
//! decomposition.
//!
//! This is the stand-in for feeding the entire pipeline to a general-purpose
//! symbolic-execution engine, the comparison point of the paper's evaluation
//! ("when we fed the same code to the symbex engine without using pipeline
//! decomposition or any of the other presented ideas, verification did not
//! complete within 12 hours").
//!
//! Differences from the compositional verifier:
//!
//! * loops are fully **unrolled** (no mini-element decomposition),
//! * element explorations are **not** cached or reused — every pipeline
//!   position re-explores its element,
//! * paths are enumerated as the full **cross-product** of per-element paths
//!   (the `2^{k·n}` growth), with feasibility checked only at path ends.
//!
//! A work budget (paths and unrolled segments, never wall-clock time) caps
//! the run so benchmarks terminate and their columns depend on the input
//! alone; hitting it is reported as "did not complete", which is the honest
//! analogue of the paper's 12-hour timeout.
//!
//! The baseline keeps its own walk — it explores unrolled elements per
//! position and has no summaries to hand the prefix tree — but composes
//! paths on the same depth-indexed namespaces as every other walk.

use crate::compose::{extend_view, rewrite_all, View};
use dataplane_pipeline::{ElementIdx, Pipeline};
use dataplane_symbex::term::TermRef;
use dataplane_symbex::{explore, EngineConfig, Exploration, Solver};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Budget and options of a monolithic run.
#[derive(Clone, Debug)]
pub struct MonolithicConfig {
    /// Maximum number of full pipeline paths to enumerate.
    pub max_paths: usize,
    /// Per-element engine budgets (loops are always unrolled here).
    pub max_segments_per_element: usize,
    /// Check the feasibility of complete paths with the solver (the paper's
    /// baseline does; switching it off isolates pure enumeration cost).
    pub check_feasibility: bool,
}

impl Default for MonolithicConfig {
    fn default() -> Self {
        MonolithicConfig {
            max_paths: 200_000,
            max_segments_per_element: 100_000,
            check_feasibility: true,
        }
    }
}

/// The outcome of a monolithic exploration.
#[derive(Clone, Debug)]
pub struct MonolithicResult {
    /// True if the whole pipeline was explored within budget.
    pub completed: bool,
    /// Full pipeline paths enumerated.
    pub paths_explored: usize,
    /// Crashing paths that were found feasible (or assumed feasible when
    /// feasibility checking is off).
    pub feasible_crashes: usize,
    /// Total element explorations performed (one per pipeline position, no
    /// reuse).
    pub element_explorations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Explore the pipeline as one piece, without decomposition.
pub fn explore_monolithic(pipeline: &Pipeline, config: &MonolithicConfig) -> MonolithicResult {
    let start = Instant::now();
    let solver = Solver::new();
    let engine = EngineConfig::monolithic(config.max_segments_per_element, 5_000_000);

    let mut ctx = MonoCtx {
        pipeline,
        config,
        solver,
        engine,
        explorations: HashMap::new(),
        paths: 0,
        crashes: 0,
        element_explorations: 0,
        out_of_budget: false,
    };
    ctx.walk(pipeline.entry(), View::Original, 0, Vec::new());

    MonolithicResult {
        completed: !ctx.out_of_budget,
        paths_explored: ctx.paths,
        feasible_crashes: ctx.crashes,
        element_explorations: ctx.element_explorations,
        elapsed: start.elapsed(),
    }
}

struct MonoCtx<'a> {
    pipeline: &'a Pipeline,
    config: &'a MonolithicConfig,
    solver: Solver,
    engine: EngineConfig,
    /// Cached *only per position*, to avoid re-exploring the same position
    /// when backtracking through it; distinct positions always re-explore.
    explorations: HashMap<ElementIdx, Exploration>,
    paths: usize,
    crashes: usize,
    element_explorations: usize,
    out_of_budget: bool,
}

impl<'a> MonoCtx<'a> {
    fn budget_left(&self) -> bool {
        self.paths < self.config.max_paths
    }

    fn exploration_for(&mut self, element: ElementIdx) -> Option<&Exploration> {
        if !self.explorations.contains_key(&element) {
            self.element_explorations += 1;
            let program = self.pipeline.node(element).element.model();
            match explore(&program, &self.engine) {
                Ok(result) => {
                    self.explorations.insert(element, result);
                }
                Err(_) => {
                    // The element alone blew the unrolling budget — the whole
                    // monolithic run cannot complete.
                    self.out_of_budget = true;
                    return None;
                }
            }
        }
        self.explorations.get(&element)
    }

    fn walk(&mut self, element: ElementIdx, view: View, depth: usize, constraint: Vec<TermRef>) {
        if !self.budget_left() {
            self.out_of_budget = true;
            return;
        }
        let Some(exploration) = self.exploration_for(element) else {
            return;
        };
        // Clone the segment list so the borrow on `self` ends before
        // recursing (segments are cheap to clone relative to solver work).
        let segments = exploration.segments.clone();
        let node = self.pipeline.node(element);
        let successors = node.successors.clone();

        for segment in &segments {
            if !self.budget_left() {
                self.out_of_budget = true;
                return;
            }
            let mut path_constraint = constraint.clone();
            path_constraint.extend(rewrite_all(&view, depth, &segment.constraint));
            let next = segment
                .outcome
                .port()
                .and_then(|p| successors.get(p as usize).copied().flatten());
            match next {
                Some(next_element) if !segment.outcome.is_crash() => {
                    let new_view = extend_view(&view, &segment.packet, depth);
                    self.walk(next_element, new_view, depth + 1, path_constraint);
                }
                _ => {
                    // A complete pipeline path.
                    self.paths += 1;
                    if segment.outcome.is_crash() {
                        let feasible = if self.config.check_feasibility {
                            self.solver.refutes(&path_constraint).is_none()
                        } else {
                            true
                        };
                        if feasible {
                            self.crashes += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_pipeline::elements::{CheckIPHeader, DecTTL, EthDecap, Sink};
    use dataplane_pipeline::presets::{buggy_pipeline, linear_router_pipeline};
    use dataplane_pipeline::Pipeline;

    fn small_pipeline() -> Pipeline {
        let mut b = Pipeline::builder();
        let strip = b.add("strip", Box::new(EthDecap::new()));
        let chk = b.add("chk", Box::new(CheckIPHeader::new()));
        let ttl = b.add("ttl", Box::new(DecTTL::new()));
        let out = b.add("out", Box::new(Sink::new()));
        b.chain(&[strip, chk, ttl, out]);
        b.build().unwrap()
    }

    #[test]
    fn small_pipeline_completes_and_finds_no_crash() {
        let pipeline = small_pipeline();
        let result = explore_monolithic(&pipeline, &MonolithicConfig::default());
        assert!(result.completed, "small pipeline should finish: {result:?}");
        assert_eq!(result.feasible_crashes, 0);
        assert!(result.paths_explored > 0);
        assert!(result.element_explorations >= 4);
    }

    #[test]
    fn buggy_pipeline_crashes_are_found() {
        // A loop-free buggy pipeline (the loop-heavy planted bug is exactly
        // what makes the monolithic baseline blow its budget, which the next
        // test checks): the TTL division bug must be reported with a feasible
        // crashing path.
        use dataplane_pipeline::elements::BuggyDecTTL;
        let mut b = Pipeline::builder();
        let strip = b.add("strip", Box::new(EthDecap::new()));
        let chk = b.add("chk", Box::new(CheckIPHeader::new()));
        let ttl = b.add("ttl", Box::new(BuggyDecTTL::new()));
        let out = b.add("out", Box::new(Sink::new()));
        b.chain(&[strip, chk, ttl, out]);
        let pipeline = b.build().unwrap();

        let result = explore_monolithic(
            &pipeline,
            &MonolithicConfig {
                max_paths: 50_000,
                ..MonolithicConfig::default()
            },
        );
        assert!(result.completed, "{result:?}");
        assert!(
            result.feasible_crashes > 0,
            "the planted bug must show up: {result:?}"
        );
    }

    #[test]
    fn loop_heavy_buggy_pipeline_blows_the_monolithic_budget() {
        let pipeline = buggy_pipeline();
        let result = explore_monolithic(
            &pipeline,
            &MonolithicConfig {
                max_paths: 50_000,
                max_segments_per_element: 20_000,
                check_feasibility: false,
            },
        );
        assert!(!result.completed, "{result:?}");
    }

    #[test]
    fn full_router_exhausts_the_budget() {
        // With loops unrolled and no decomposition, the full router (which
        // includes the IP-options walker) must not complete within a small
        // budget — the paper's "did not complete within 12 hours" in
        // miniature.
        let pipeline = linear_router_pipeline();
        let result = explore_monolithic(
            &pipeline,
            &MonolithicConfig {
                max_paths: 2_000,
                max_segments_per_element: 2_000,
                check_feasibility: false,
            },
        );
        assert!(!result.completed, "expected budget exhaustion: {result:?}");
    }

    #[test]
    fn path_budget_is_respected() {
        let pipeline = small_pipeline();
        let result = explore_monolithic(
            &pipeline,
            &MonolithicConfig {
                max_paths: 3,
                ..MonolithicConfig::default()
            },
        );
        assert!(result.paths_explored <= 4);
    }
}
