//! Sharded-compose byte-identity across the whole preset matrix.
//!
//! The service's shard path (`--compose-shard`) splits each scenario's
//! Step-2 suspect×prefix enumeration into contiguous wire shards and folds
//! the records back by replaying the sequential enumeration. These tests
//! drive that path through an in-process shard executor over **all 15
//! preset scenarios** at shard counts 1, 2, and 8 (plus the unsharded
//! fallback) and require the deterministic report to equal the plain
//! in-process serve byte for byte. The networked variants (real TCP
//! workers, deaths, cancellation frames) live in `exec_net.rs`; this file
//! is the exhaustive preset sweep.

use dataplane_orchestrator::exec::ExecError;
use dataplane_orchestrator::{
    preset_scenarios, ComposeShardJob, Executor, Fingerprint, VerifyOutcome, VerifyRequest,
    VerifyService,
};
use dataplane_symbex::CancelToken;
use dataplane_verifier::{ComposeShardResult, ElementSummary, Verifier, VerifierOptions};
use std::sync::Arc;

/// An executor with a remote-shaped shard path that runs in-process: each
/// [`ComposeShardJob`] is decided by a fresh verifier from the summaries
/// the coordinator would ship, exactly as a socket worker decides it —
/// minus the socket. It explores nothing itself, so Step 1 stays on the
/// service's shared scheduler.
struct ShardExecutor;

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
}

fn preset_request() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: preset_scenarios(),
    }
}

#[test]
fn sharded_preset_matrix_is_byte_identical_at_every_shard_count() {
    // Reference: the plain in-process serve of all 20 presets.
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(preset_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // Shard counts 1 (one shard per scenario — the degenerate split), 2,
    // and 8; plus 0, the unsharded fallback through the very same
    // executor (whose compose path then declines and the service
    // composes on its own scheduler).
    for shards in [1usize, 2, 8, 0] {
        let service = VerifyService::new()
            .with_threads(2)
            .with_compose_shard(shards);
        let plan = service.plan_request(&preset_request()).unwrap();
        let executed = service.execute_plan(&plan, &ShardExecutor).unwrap();
        assert_eq!(
            executed.deterministic_json().to_text(),
            reference,
            "compose-shard {shards} must reproduce the in-process preset matrix byte for byte"
        );
    }
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
        .with_compose_shard(4)
        .serve_with(single(), Some(&ShardExecutor))
        .unwrap();
    assert!(matches!(through_shards.outcome, VerifyOutcome::Single(_)));
    assert_eq!(through_shards.request, "single");
    assert_eq!(
        through_shards.deterministic_json().to_text(),
        served.deterministic_json().to_text()
    );
}
