//! The cross-commit refactoring oracle: `tests/golden/preset_matrix.det.json`
//! is the deterministic preset-matrix report written by the commit *before*
//! `Verifier::verify` became the shard fold (`vericlick run --matrix
//! --threads 1 --det-json`, 15193 bytes). Every in-tree byte-identity check
//! compares two modes of one build — and since the fold is now the only
//! Step-2 walk, baseline and subject there share code. This file does not:
//! a change that moves it changed what the verifier decides, and must say
//! so by regenerating it on purpose.

use vericlick::orchestrator::{preset_scenarios, VerifyRequest, VerifyService, WorkerFleet};

const GOLDEN: &str = include_str!("golden/preset_matrix.det.json");

fn preset_matrix() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: preset_scenarios(),
    }
}

#[test]
fn service_reproduces_the_golden_matrix_at_1_2_and_4_threads() {
    // In process a composition is one fold on one pool thread, so the pool
    // size only changes which compositions run beside each other.
    for threads in [1, 2, 4] {
        let served = VerifyService::new()
            .with_threads(threads)
            .serve(preset_matrix())
            .expect("serve matrix");
        assert!(
            served.deterministic_json().to_text() == GOLDEN,
            "{threads} threads: deterministic report drifted from the golden file"
        );
    }
}

#[test]
fn stdio_fleet_reproduces_the_golden_matrix() {
    let service = VerifyService::new().with_threads(2);
    let plan = service.plan_request(&preset_matrix()).expect("plan");
    let fleet = WorkerFleet::subprocess(
        env!("CARGO_BIN_EXE_vericlick"),
        vec!["worker".to_string()],
        2,
    );
    let executed = service.execute_plan(&plan, &fleet).expect("execute plan");
    let stats = executed.matrix().and_then(|m| m.stats.as_ref());
    assert!(
        stats.is_some_and(|s| s.compose_shards > 0),
        "Step 2 must have run as shards on the fleet"
    );
    assert!(
        executed.deterministic_json().to_text() == GOLDEN,
        "stdio fleet: deterministic report drifted from the golden file"
    );
}
