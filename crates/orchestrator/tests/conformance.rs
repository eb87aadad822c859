//! Integration tests for the differential-conformance subsystem: replay
//! of every preset counterexample, fuzzing of every proven preset, and
//! the determinism contract of the conformance report.

use dataplane_orchestrator::conformance::{replay_matrix_json, ConformanceReport};
use dataplane_orchestrator::{
    preset_scenarios, InProcessExecutor, VerifyOutcome, VerifyRequest, VerifyService,
};
use dataplane_verifier::Verdict;

fn conformance(service: &VerifyService, seed: u64, packets: u64) -> ConformanceReport {
    let response = service
        .serve(VerifyRequest::Conformance {
            scenarios: preset_scenarios(),
            seed,
            packets,
        })
        .expect("conformance request serves");
    assert_eq!(response.request, "conformance");
    match response.outcome {
        VerifyOutcome::Conformance(report) => *report,
        _ => panic!("conformance request must produce a conformance outcome"),
    }
}

#[test]
fn every_preset_counterexample_reproduces_concretely() {
    let service = VerifyService::new().with_threads(4);
    let report = conformance(&service, 1, 0);
    // The preset matrix has 5 violated scenarios (the buggy pipeline's
    // three, plus the two planted temporal violations), each with at
    // least one counterexample; every replay must reproduce.
    assert!(
        report.replay.len() >= 5,
        "expected counterexamples from the violated presets, got {}",
        report.replay.len()
    );
    for outcome in &report.replay {
        assert!(
            outcome.reproduced,
            "soundness: {}/{} counterexample '{}' did not reproduce \
             (concrete run {} at {}, path [{}])",
            outcome.scenario,
            outcome.property,
            outcome.description,
            outcome.disposition,
            outcome.at,
            outcome.concrete_path.join(" -> "),
        );
        assert!(
            outcome.scenario == "buggy" || outcome.scenario == "firewall",
            "only the buggy presets and the planted temporal violations \
             are violated, got '{}'",
            outcome.scenario
        );
    }
    assert_eq!(report.replay_mismatches(), 0);
}

#[test]
fn fuzzing_the_proven_presets_finds_zero_contradictions() {
    let service = VerifyService::new().with_threads(4);
    let report = conformance(&service, 0xF00D, 6_000);
    // 15 proven scenarios in the preset matrix, all fuzzed.
    assert_eq!(report.fuzz.len(), 15);
    assert_eq!(
        report.contradictions(),
        0,
        "a fuzzed packet contradicted a Proven verdict:\n{report}"
    );
    assert!(report.packets_pushed() >= 6_000, "model seeds ride on top");
    for fuzz in &report.fuzz {
        assert!(
            fuzz.checked > 0,
            "{}: no packet was checkable",
            fuzz.scenario
        );
        assert!(
            fuzz.crashed == 0,
            "{}: crash on a crash-free preset",
            fuzz.scenario
        );
    }
    assert!(report.ok());
}

#[test]
fn conformance_report_is_byte_identical_for_a_fixed_seed() {
    // Two services (cold + warm store, different thread counts): the
    // deterministic document must not change.
    let a = conformance(&VerifyService::new().with_threads(2), 42, 2_000);
    let b = conformance(&VerifyService::new().with_threads(8), 42, 2_000);
    assert_eq!(
        a.deterministic_json().to_text(),
        b.deterministic_json().to_text()
    );
    // A different seed draws different packets (operational sanity that
    // the seed actually reaches the streams).
    let c = conformance(&VerifyService::new().with_threads(2), 43, 2_000);
    assert_ne!(
        a.deterministic_json().to_text(),
        c.deterministic_json().to_text()
    );
}

#[test]
fn explicit_in_process_executor_matches_the_default_path() {
    let service = VerifyService::new().with_threads(4);
    // InProcessExecutor has no remote fuzz path; run_conformance must
    // fall back to the shared pool and match the executor-less run.
    let direct = service
        .run_conformance(preset_scenarios(), 7, 1_000, None)
        .unwrap();
    let via_exec = service
        .run_conformance(preset_scenarios(), 7, 1_000, Some(&InProcessExecutor))
        .unwrap();
    assert_eq!(
        direct.deterministic_json().to_text(),
        via_exec.deterministic_json().to_text()
    );
}

#[test]
fn saved_matrix_reports_replay_through_the_json_path() {
    // The `vericlick conform` pipeline, in-process: serve the matrix,
    // serialise the deterministic document, parse it back, replay.
    let service = VerifyService::new().with_threads(4);
    let response = service
        .serve(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .unwrap();
    let (proven, violated, unknown) = response.verdict_counts();
    assert_eq!((proven, violated, unknown), (15, 5, 0));
    let text = response.deterministic_json().to_text();
    let doc = dataplane_orchestrator::json::Json::parse(&text).unwrap();
    let outcomes = replay_matrix_json(&doc).unwrap();
    assert!(!outcomes.is_empty());
    assert!(
        outcomes.iter().all(|o| o.reproduced),
        "all replays reproduce"
    );

    // The matrix itself agrees: every violated scenario's counterexamples
    // were replayed.
    let matrix = response.matrix().unwrap();
    let expected: usize = matrix
        .scenarios
        .iter()
        .filter(|s| s.report.verdict == Verdict::Violated)
        .map(|s| s.report.counterexamples.len())
        .sum();
    assert_eq!(outcomes.len(), expected);
}

#[test]
fn non_preset_scenarios_are_rejected_by_the_replay_decoder() {
    let doc = dataplane_orchestrator::json::Json::parse(
        r#"{"schema":2,"kind":"matrix","scenarios":[{"pipeline":"mystery","report":{"property":"crash-freedom","verdict":"violated","counterexamples":[],"unproven":[],"stats":{}}}],"proven":0,"violated":1,"unknown":0}"#,
    )
    .unwrap();
    let err = replay_matrix_json(&doc).unwrap_err();
    assert!(
        err.to_string().contains("not a preset"),
        "names the limitation: {err}"
    );
}
