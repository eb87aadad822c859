//! Sharded-compose byte-identity and cut placement across the whole preset
//! matrix.
//!
//! On a fleet of two or more live slots the service splits each scenario's
//! Step-2 suspect×prefix enumeration into contiguous wire shards and folds
//! the records back by replaying the sequential enumeration. These tests
//! drive that path through an in-process shard executor over **all 20
//! preset scenarios** at 2, 8 and 32 slots (plus one slot, which cuts
//! nothing) and require the deterministic report to equal the plain
//! in-process serve byte for byte. Cuts are placed by solver units alone,
//! so the ranges are a function of the request and the slot count: they
//! are pinned here, and a warm store cuts exactly as a cold one. The
//! networked variants (real TCP workers, deaths) live in `exec_net.rs`;
//! this file is the exhaustive preset sweep.

use dataplane_orchestrator::exec::ExecError;
use dataplane_orchestrator::{
    preset_scenarios, ComposeShardJob, Executor, Fingerprint, SummaryStore, VerifyOutcome,
    VerifyRequest, VerifyService,
};
use dataplane_symbex::CancelToken;
use dataplane_verifier::{ComposeShardResult, ElementSummary, Verifier, VerifierOptions};
use std::sync::{Arc, Mutex};

/// An executor with a remote-shaped shard path that runs in-process: each
/// [`ComposeShardJob`] is decided by a fresh verifier from the summaries
/// the coordinator would ship, exactly as a socket worker decides it —
/// minus the socket. It explores nothing itself, so Step 1 stays on the
/// service's shared scheduler. It reports `slots` of live capacity and
/// records the `(start, end)` unit range of every shard it was sent, in
/// job order.
struct ShardExecutor {
    slots: usize,
    cuts: Mutex<Vec<(usize, usize)>>,
}

impl ShardExecutor {
    fn new(slots: usize) -> Self {
        ShardExecutor {
            slots,
            cuts: Mutex::new(Vec::new()),
        }
    }

    /// Every shard range sent so far, in job order.
    fn cuts(&self) -> Vec<(usize, usize)> {
        self.cuts.lock().unwrap().clone()
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
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            self.cuts.lock().unwrap().push((job.start, job.end));
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

/// The preset matrix executed on `service` through a `slots`-slot shard
/// executor: the deterministic report and the ranges it was cut into.
fn execute_sharded(service: &VerifyService, slots: usize) -> (String, Vec<(usize, usize)>) {
    let plan = service.plan_request(&preset_request()).unwrap();
    let executor = ShardExecutor::new(slots);
    let executed = service.execute_plan(&plan, &executor).unwrap();
    (executed.deterministic_json().to_text(), executor.cuts())
}

/// The ranges a fresh store cuts the preset matrix into on two slots
/// (a target of 8 shards for the whole request), in job order: each of
/// the ten scenarios with suspects gets less than one shard's share, so
/// one whole range.
#[rustfmt::skip]
const COLD_CUTS_2_SLOTS: &[(usize, usize)] = &[
    (0, 49), (0, 49), (0, 37), (0, 31), (0, 31), (0, 37), (0, 13), (0, 10), (0, 10), (0, 15),
];

/// The same at 8 slots (a target of 32 shards), one row per scenario.
#[rustfmt::skip]
const COLD_CUTS_8_SLOTS: &[(usize, usize)] = &[
    (0, 10), (10, 20), (20, 30), (30, 40), (40, 49),
    (0, 10), (10, 20), (20, 30), (30, 40), (40, 49),
    (0, 10), (10, 20), (20, 30), (30, 37),
    (0, 11), (11, 22), (22, 31),
    (0, 11), (11, 22), (22, 31),
    (0, 10), (10, 20), (20, 30), (30, 37),
    (0, 13),
    (0, 10),
    (0, 10),
    (0, 15),
];

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
    // cut into ever more shards, and a capacity no fleet has (workers
    // advertise their own) cuts every unit apart.
    for slots in [1usize, 2, 8, 32, usize::MAX] {
        let (report, cuts) = execute_sharded(&VerifyService::new().with_threads(2), slots);
        assert_eq!(
            report, reference,
            "{slots} slots must reproduce the in-process preset matrix byte for byte"
        );
        assert_eq!(cuts.is_empty(), slots < 2, "{slots} slots sent {cuts:?}");
    }
}

#[test]
fn a_fresh_store_cuts_the_pinned_ranges() {
    for (slots, pinned) in [(2, COLD_CUTS_2_SLOTS), (8, COLD_CUTS_8_SLOTS)] {
        let (_, cuts) = execute_sharded(&VerifyService::new().with_threads(2), slots);
        assert_eq!(cuts, pinned, "{slots} slots");
    }
}

#[test]
fn a_warm_request_cuts_like_a_cold_one() {
    // The second request runs on the store the first one warmed: nothing
    // it observed while the first request's shards ran moves a cut.
    // Eight slots, so that the heavy scenarios are cut more than once.
    let service = VerifyService::new().with_threads(2);
    let (cold_report, cold) = execute_sharded(&service, 8);
    let (warm_report, warm) = execute_sharded(&service, 8);
    assert!(cold.len() > preset_scenarios().len());
    assert_eq!(warm, cold);
    assert_eq!(warm_report, cold_report);
}

#[test]
fn a_sharded_request_persists_summaries_and_the_manifest_only() {
    let dir = std::env::temp_dir().join(format!("vericlick-shard-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(SummaryStore::persistent(&dir).unwrap());
    let service = VerifyService::new().with_threads(2).with_store(store);
    let (_, cuts) = execute_sharded(&service, 2);
    assert!(!cuts.is_empty());
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    // Nothing beside the summary tier: no cost table of any kind.
    for file in &files {
        let summary = file
            .strip_suffix(".json")
            .is_some_and(|stem| Fingerprint::parse(stem).is_some());
        assert!(file == "manifest.json" || summary, "unexpected file {file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
