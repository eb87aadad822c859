//! Sharded-compose byte-identity across the whole preset matrix.
//!
//! On a fleet of two or more live slots the service splits each scenario's
//! Step-2 suspect×prefix enumeration into contiguous wire shards and folds
//! the records back by replaying the sequential enumeration. These tests
//! drive that path through an in-process shard executor over **all 20
//! preset scenarios** at 2, 8 and 32 slots (plus one slot, which cuts
//! nothing) and require the deterministic report to equal the plain
//! in-process serve byte for byte. The networked variants (real TCP
//! workers, deaths, cancellation frames) live in `exec_net.rs`; this file
//! is the exhaustive preset sweep.

use dataplane_orchestrator::exec::ExecError;
use dataplane_orchestrator::{
    preset_scenarios, ComposeShardJob, Executor, Fingerprint, SummaryStore, VerifyOutcome,
    VerifyRequest, VerifyService,
};
use dataplane_symbex::CancelToken;
use dataplane_verifier::{ComposeShardResult, ElementSummary, Verifier, VerifierOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An executor with a remote-shaped shard path that runs in-process: each
/// [`ComposeShardJob`] is decided by a fresh verifier from the summaries
/// the coordinator would ship, exactly as a socket worker decides it —
/// minus the socket. It explores nothing itself, so Step 1 stays on the
/// service's shared scheduler. It reports `slots` of live capacity and
/// counts the shards it was sent.
struct ShardExecutor {
    slots: usize,
    shards: AtomicUsize,
}

impl ShardExecutor {
    fn new(slots: usize) -> Self {
        ShardExecutor {
            slots,
            shards: AtomicUsize::new(0),
        }
    }
}

impl Executor for ShardExecutor {
    fn describe(&self) -> String {
        "in-process shard harness".into()
    }

    fn compose_shard_jobs(
        &self,
        jobs: &[ComposeShardJob],
        options: &VerifierOptions,
        summaries: &(dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync),
    ) -> Option<Result<Vec<ComposeShardResult>, ExecError>> {
        self.shards.fetch_add(jobs.len(), Ordering::Relaxed);
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            let scenario = match job.scenario.to_scenario() {
                Ok(s) => s,
                Err(e) => return Some(Err(ExecError::Job(e.to_string()))),
            };
            let shipped: Vec<Arc<ElementSummary>> = job
                .fingerprints
                .iter()
                .filter_map(|fp| summaries(*fp))
                .collect();
            results.push(
                Verifier::with_options(options.clone()).decide_composition_shard(
                    &scenario.pipeline,
                    &scenario.property,
                    shipped,
                    job.start,
                    job.end,
                    &CancelToken::new(),
                ),
            );
        }
        Some(Ok(results))
    }

    fn live_capacity(&self) -> Option<usize> {
        Some(self.slots)
    }
}

fn preset_request() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: preset_scenarios(),
    }
}

#[test]
fn sharded_preset_matrix_is_byte_identical_at_every_fleet_size() {
    // Reference: the plain in-process serve of all 20 presets.
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(preset_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // One slot cuts nothing: the executor has no whole-composition path,
    // so the service composes on its own scheduler. Two, 8 and 32 slots
    // cut into ever more shards.
    for slots in [1usize, 2, 8, 32] {
        let service = VerifyService::new().with_threads(2);
        let plan = service.plan_request(&preset_request()).unwrap();
        let executor = ShardExecutor::new(slots);
        let executed = service.execute_plan(&plan, &executor).unwrap();
        assert_eq!(
            executed.deterministic_json().to_text(),
            reference,
            "{slots} slots must reproduce the in-process preset matrix byte for byte"
        );
        let shards = executor.shards.load(Ordering::Relaxed);
        assert_eq!(shards > 0, slots > 1, "{slots} slots sent {shards} shards");
    }
}

#[test]
fn unit_costs_at_u64_max_still_cut_a_byte_identical_matrix() {
    // A worker that reports shard timings near `u64::MAX` (or a poisoned
    // `calibration.json`) leaves every calibrated unit cost at the top of
    // the range: the cost sums must saturate, not overflow, and the cuts
    // must not move the report.
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(preset_request())
        .unwrap()
        .deterministic_json()
        .to_text();
    let store = Arc::new(SummaryStore::in_memory());
    let service = VerifyService::new()
        .with_threads(2)
        .with_store(store.clone());
    let plan = service.plan_request(&preset_request()).unwrap();
    for fingerprint in plan.element_fingerprints.iter().flatten() {
        store.record_unit_cost(*fingerprint, 1, u64::MAX);
    }
    let executed = service.execute_plan(&plan, &ShardExecutor::new(2)).unwrap();
    assert_eq!(executed.deterministic_json().to_text(), reference);
}

#[test]
fn a_single_request_keeps_its_shape_through_an_executor() {
    let single = || {
        let scenario = preset_scenarios().remove(0);
        VerifyRequest::Single {
            name: scenario.pipeline_name,
            pipeline: scenario.pipeline,
            property: scenario.property,
        }
    };
    let served = VerifyService::new()
        .with_threads(2)
        .serve(single())
        .unwrap();
    let through_shards = VerifyService::new()
        .with_threads(2)
        .serve_with(single(), Some(&ShardExecutor::new(4)))
        .unwrap();
    assert!(matches!(through_shards.outcome, VerifyOutcome::Single(_)));
    assert_eq!(through_shards.request, "single");
    assert_eq!(
        through_shards.deterministic_json().to_text(),
        served.deterministic_json().to_text()
    );
}
