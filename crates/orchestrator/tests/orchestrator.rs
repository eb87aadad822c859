//! Integration tests of parallel verification on the shared scheduler:
//!
//! * the parallel path produces verdicts **byte-identical** to the
//!   sequential `dataplane-verifier` on every preset scenario,
//! * the content-addressed cache is stable (property tests over the hash
//!   and the JSON codec) and round-trips summaries through the persistent
//!   tier,
//! * a warm-cache rerun skips every unchanged element job (hit counts
//!   asserted).

use dataplane_orchestrator::{
    element_fingerprint, fingerprint_bytes, plan, preset_pipelines, preset_scenarios, Fingerprint,
    ProgressEvent, Scenario, SummaryStore, VerifyService,
};
use dataplane_verifier::{Report, Verifier, VerifierOptions};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything deterministic about a report must match between the parallel
/// and sequential paths. (Cache-bookkeeping stats and wall-clock times are
/// legitimately different.)
fn assert_reports_identical(parallel: &Report, sequential: &Report, label: &str) {
    assert_eq!(parallel.verdict, sequential.verdict, "{label}: verdict");
    assert_eq!(
        parallel.counterexamples, sequential.counterexamples,
        "{label}: counterexamples"
    );
    assert_eq!(parallel.unproven, sequential.unproven, "{label}: unproven");
    assert_eq!(
        parallel.stats.elements, sequential.stats.elements,
        "{label}: elements"
    );
    assert_eq!(
        parallel.stats.total_segments, sequential.stats.total_segments,
        "{label}: segments"
    );
    assert_eq!(
        parallel.stats.suspects, sequential.stats.suspects,
        "{label}: suspects"
    );
    assert_eq!(
        parallel.stats.discharged, sequential.stats.discharged,
        "{label}: discharged"
    );
    assert_eq!(
        parallel.stats.composed_paths, sequential.stats.composed_paths,
        "{label}: composed paths"
    );
    assert_eq!(
        parallel.stats.solver_calls, sequential.stats.solver_calls,
        "{label}: solver calls"
    );
    assert_eq!(
        parallel.stats.fm_budget_aborts, sequential.stats.fm_budget_aborts,
        "{label}: fm budget aborts"
    );
    assert_eq!(
        parallel.stats.model_search_aborts, sequential.stats.model_search_aborts,
        "{label}: model search aborts"
    );
}

#[test]
fn parallel_step2_reports_identical_to_sequential_on_all_presets() {
    // Same scenarios, one at a time, on a 1-thread and a 4-thread pool:
    // the pool size must not leak into a report. Everything deterministic
    // about it must be byte-identical.
    let sequential = VerifyService::new().with_threads(1);
    let parallel = VerifyService::new().with_threads(4);
    for (one, four) in preset_scenarios().into_iter().zip(preset_scenarios()) {
        let label = one.label();
        let sequential = sequential.run_matrix(vec![one]);
        let parallel = parallel.run_matrix(vec![four]);
        assert_reports_identical(
            &parallel.scenarios[0].report,
            &sequential.scenarios[0].report,
            &label,
        );
    }
}

#[test]
fn step2_of_a_lone_scenario_is_one_fold_on_one_thread() {
    // One heavy scenario on a warm store is a single pool task: it folds
    // alone whatever the pool size, and reports exactly what one thread
    // reports.
    let reference = VerifyService::new()
        .with_threads(1)
        .run_matrix(vec![scenario("ip_router")]);
    for threads in [1, 2, 4] {
        let service = VerifyService::new().with_threads(threads);
        service.run_matrix(vec![scenario("ip_router")]);
        let warm = service.run_matrix(vec![scenario("ip_router")]);
        let label = format!("{threads} threads");
        assert_eq!(warm.explore_jobs, 0, "{label}: second run must be warm");
        assert_eq!(warm.peak_live_threads, 1, "{label}");
        assert_reports_identical(
            &warm.scenarios[0].report,
            &reference.scenarios[0].report,
            &label,
        );
    }
}

#[test]
fn parallel_matrix_verdicts_equal_sequential_on_all_presets() {
    let options = VerifierOptions::default();
    let sequential: Vec<(String, Report)> = preset_scenarios()
        .into_iter()
        .map(|s| {
            let label = s.label();
            let report = Verifier::with_options(options.clone()).verify(&s.pipeline, &s.property);
            (label, report)
        })
        .collect();

    let service = VerifyService::new().with_threads(4);
    let matrix = service.run_matrix(preset_scenarios());
    assert_eq!(matrix.scenarios.len(), sequential.len());
    assert_eq!(matrix.threads, 4);

    for (parallel, (label, sequential_report)) in matrix.scenarios.iter().zip(sequential.iter()) {
        assert_eq!(&parallel.label(), label, "scenario order preserved");
        assert_reports_identical(&parallel.report, sequential_report, label);
        // Seeded composition must not have re-explored anything: every
        // summary came from the service's store.
        assert_eq!(
            parallel.report.stats.summaries_computed, 0,
            "{label}: composition re-explored an element"
        );
        assert_eq!(
            parallel.report.stats.summaries_reused, parallel.report.stats.elements,
            "{label}: not every summary was served from the store"
        );
    }

    // The matrix must demonstrate both proofs and violation-finding.
    let (proven, violated, _unknown) = matrix.verdict_counts();
    assert!(proven >= 6, "expected most presets proven, got {proven}");
    assert!(
        violated >= 2,
        "the buggy pipeline must be caught, got {violated} violations"
    );

    // The shared scheduler's promise: however many compositions fanned out
    // Step-2 shards, live working threads never exceeded the pool size.
    assert!(
        matrix.peak_live_threads <= matrix.threads,
        "peak live threads {} exceeded the pool size {}",
        matrix.peak_live_threads,
        matrix.threads
    );
}

#[test]
fn shared_pool_bounds_live_solver_threads_under_many_scenarios() {
    // 20 scenarios on a 3-thread pool: each composition's Step-2 shards are
    // tasks on the same pool, so live solver threads stay bounded by the
    // single pool size.
    let service = VerifyService::new().with_threads(3);
    let matrix = service.run_matrix(preset_scenarios());
    assert_eq!(matrix.scenarios.len(), 20);
    assert!(
        (1..=3).contains(&matrix.peak_live_threads),
        "peak live threads {} outside 1..=3",
        matrix.peak_live_threads
    );
    let (_, violated, unknown) = matrix.verdict_counts();
    assert_eq!(unknown, 0, "every preset must decide");
    assert!(violated >= 2, "the planted bugs must still be found");
}

#[test]
fn warm_cache_rerun_skips_all_element_jobs() {
    let service = VerifyService::new().with_threads(4);

    let cold = service.run_matrix(preset_scenarios());
    assert!(cold.explore_jobs > 0, "cold run must explore");
    assert_eq!(cold.cached_jobs, 0, "store started empty");

    let warm = service.run_matrix(preset_scenarios());
    assert_eq!(warm.explore_jobs, 0, "warm run re-explored an element");
    assert_eq!(
        warm.cached_jobs, cold.explore_jobs,
        "every distinct behaviour must be served warm"
    );
    // Every element summary of every scenario was a memory hit.
    let total_elements: usize = warm.scenarios.iter().map(|s| s.report.stats.elements).sum();
    assert!(
        warm.cache.memory_hits >= total_elements as u64,
        "expected >= {total_elements} memory hits, got {}",
        warm.cache.memory_hits
    );
    assert_eq!(warm.cache.misses, 0, "warm run missed the cache");

    // Verdicts are unchanged by cache temperature.
    for (a, b) in cold.scenarios.iter().zip(warm.scenarios.iter()) {
        assert_reports_identical(&b.report, &a.report, &a.label());
    }
}

#[test]
fn persistent_tier_warms_a_fresh_process() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "vericlick-orchestrator-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // First "process": verify the router, persisting summaries.
    let store = Arc::new(SummaryStore::persistent(&dir).unwrap());
    let service = VerifyService::new().with_store(store).with_threads(2);
    let first = service.run_matrix(vec![scenario("ip_router")]);
    assert!(first.explore_jobs > 0);
    assert!(first.cache.persisted >= first.explore_jobs as u64);

    // Second "process": fresh store over the same directory — no element
    // jobs, summaries decoded from disk, same verdict.
    let store = Arc::new(SummaryStore::persistent(&dir).unwrap());
    let service = VerifyService::new().with_store(store).with_threads(2);
    let second = service.run_matrix(vec![scenario("ip_router")]);
    assert_eq!(second.explore_jobs, 0, "disk tier failed to warm the run");
    assert!(second.cache.disk_hits > 0, "no summary came from disk");
    assert_reports_identical(
        &second.scenarios[0].report,
        &first.scenarios[0].report,
        "ip_router across processes",
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-freedom scenario for one named preset.
fn scenario(name: &str) -> Scenario {
    preset_scenarios()
        .into_iter()
        .find(|s| s.pipeline_name == name && s.label().contains("crash"))
        .expect("preset exists")
}

#[test]
fn planner_deduplicates_and_orders_jobs() {
    let options = VerifierOptions::default();
    let store = SummaryStore::in_memory();
    let scenarios = preset_scenarios();
    let job_plan = plan(&scenarios, &options, &store);

    // Distinct behaviours only: no fingerprint appears twice in the plan.
    let fingerprints: Vec<Fingerprint> = job_plan.explore.iter().map(|e| e.fingerprint).collect();
    let distinct: HashSet<Fingerprint> = fingerprints.iter().copied().collect();
    assert_eq!(distinct.len(), fingerprints.len(), "duplicate explore job");

    // Far fewer jobs than element instances — that is the `k·2^n` reuse.
    let total_instances: usize = scenarios.iter().map(|s| s.pipeline.len()).sum();
    assert!(
        job_plan.explore.len() * 3 < total_instances,
        "{} jobs for {} instances",
        job_plan.explore.len(),
        total_instances
    );

    // Every scenario's dependencies point at jobs covering exactly its
    // elements' fingerprints.
    for (scenario_idx, scenario) in scenarios.iter().enumerate() {
        assert_eq!(
            job_plan.element_fingerprints[scenario_idx].len(),
            scenario.pipeline.len()
        );
        for &dep in &job_plan.scenario_deps[scenario_idx] {
            let fp = job_plan.explore[dep].fingerprint;
            assert!(
                job_plan.element_fingerprints[scenario_idx].contains(&fp),
                "scenario {scenario_idx} depends on a job it does not use"
            );
        }
    }
}

#[test]
fn progress_events_stream_the_whole_run() {
    let explores = Arc::new(AtomicUsize::new(0));
    let composes = Arc::new(AtomicUsize::new(0));
    let (e, c) = (explores.clone(), composes.clone());
    let service = VerifyService::new()
        .with_threads(4)
        .with_progress(move |event| match event {
            ProgressEvent::ExploreFinished { ok, .. } => {
                assert!(ok);
                e.fetch_add(1, Ordering::Relaxed);
            }
            ProgressEvent::ComposeFinished { .. } => {
                c.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        });
    let matrix = service.run_matrix(vec![scenario("ip_router"), scenario("middlebox")]);
    assert_eq!(explores.load(Ordering::Relaxed), matrix.explore_jobs);
    assert_eq!(composes.load(Ordering::Relaxed), 2);
}

#[test]
fn matrix_report_serialises_for_machines() {
    let service = VerifyService::new().with_threads(2);
    let matrix = service.run_matrix(vec![scenario("firewall")]);
    let json = matrix.to_json();
    let text = json.to_text();
    let parsed = dataplane_orchestrator::json::Json::parse(&text).unwrap();
    assert_eq!(parsed.get("proven").unwrap().as_u64(), Some(1));
    let scenarios = parsed.get("scenarios").unwrap().as_arr().unwrap();
    assert_eq!(scenarios.len(), 1);
    assert_eq!(
        scenarios[0].get("pipeline").unwrap().as_str(),
        Some("firewall")
    );
    assert_eq!(
        scenarios[0].get("verdict").unwrap().as_str(),
        Some("proven")
    );
    assert!(!matrix.to_string().is_empty());
}

// ---------------------------------------------------------------------------
// Property tests: hash stability and codec round-trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The content hash is a pure function of its input text.
    #[test]
    fn fingerprints_are_stable_and_collision_averse(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        flip in 0usize..64,
    ) {
        let text: String = bytes.iter().map(|b| char::from(b % 128)).collect();
        let a = fingerprint_bytes(&text);
        let b = fingerprint_bytes(&text);
        prop_assert_eq!(a, b);
        // Round-trip through the hex form.
        prop_assert_eq!(Fingerprint::parse(&a.to_string()), Some(a));
        // Any single-character edit changes the hash.
        if !text.is_empty() {
            let at = flip % text.len();
            let mut edited: Vec<char> = text.chars().collect();
            edited[at] = if edited[at] == 'x' { 'y' } else { 'x' };
            let edited: String = edited.into_iter().collect();
            if edited != text {
                prop_assert!(fingerprint_bytes(&edited) != a, "edit not detected");
            }
        }
    }

    /// Element fingerprints are deterministic across independently built
    /// element instances (the property the cross-run cache relies on).
    #[test]
    fn element_fingerprints_deterministic_across_instances(preset in 0usize..5) {
        let presets = preset_pipelines();
        let (_, make) = presets[preset];
        let options = VerifierOptions::default();
        let a = make();
        let b = make();
        for idx in 0..a.len() {
            prop_assert_eq!(
                element_fingerprint(a.node(idx).element.as_ref(), &options.engine),
                element_fingerprint(b.node(idx).element.as_ref(), &options.engine)
            );
        }
    }
}

#[test]
fn summaries_round_trip_through_persistence_for_every_distinct_element() {
    use dataplane_orchestrator::json::Json;
    use dataplane_orchestrator::persist::{summary_from_json, summary_to_json};
    use dataplane_symbex::explore;
    use dataplane_verifier::ElementSummary;

    let options = VerifierOptions::default();
    let mut seen = HashSet::new();
    for (_, make) in preset_pipelines() {
        let pipeline = make();
        for (_, node) in pipeline.iter() {
            let element = node.element.as_ref();
            let fp = element_fingerprint(element, &options.engine);
            if !seen.insert(fp) {
                continue;
            }
            let exploration = explore(&element.model(), &options.engine).unwrap();
            let summary = ElementSummary {
                type_name: element.type_name().to_string(),
                config_key: element.config_key(),
                exploration,
                explore_time: std::time::Duration::from_micros(421),
            };
            let text = summary_to_json(&summary).to_text();
            let decoded = summary_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(decoded.type_name, summary.type_name);
            assert_eq!(decoded.config_key, summary.config_key);
            assert_eq!(decoded.explore_time, summary.explore_time);
            assert_eq!(
                decoded.exploration.segments.len(),
                summary.exploration.segments.len()
            );
            // Byte-stable re-encoding proves the decode lost nothing the
            // encoder can see.
            assert_eq!(summary_to_json(&decoded).to_text(), text);
        }
    }
    assert!(
        seen.len() >= 10,
        "expected a rich element set, got {}",
        seen.len()
    );
}
