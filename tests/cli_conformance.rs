//! Cross-process proof of the conformance subsystem, through the real
//! `vericlick` binary:
//!
//! * `vericlick run --matrix --det-json M` then `vericlick conform M`
//!   replays every preset counterexample from the saved report and exits
//!   0 (all of them reproduce concretely),
//! * `vericlick fuzz` with a fixed seed writes a byte-identical
//!   deterministic report whether the shards run on the in-process pool
//!   or sharded over a 2-worker stdio fleet,
//! * `vericlick fuzz --seed 77 --packets 50000` writes exactly
//!   `tests/golden/fuzz_seed77.det.json`, the report of the commit before
//!   model runtimes built each element model once — the cross-commit
//!   oracle of the concrete interpreter.

use std::path::PathBuf;
use std::process::Command;

fn vericlick() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vericlick"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vericlick-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn saved_matrix_counterexamples_replay_through_conform() {
    let dir = temp_dir("conform");
    let matrix_path = dir.join("matrix.json");

    let status = vericlick()
        .args(["run", "--matrix", "--det-json"])
        .arg(&matrix_path)
        .status()
        .expect("spawn vericlick run");
    // The preset matrix contains violated scenarios, so `run` exits 1 —
    // that is its verdict, not a failure to produce the report.
    assert!(matrix_path.exists(), "matrix report written ({status})");

    let output = vericlick()
        .arg("conform")
        .arg(&matrix_path)
        .output()
        .expect("spawn vericlick conform");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "conform found mismatches:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("0 mismatches"),
        "summary line names the mismatch count:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_report_is_byte_identical_in_process_and_on_a_worker_fleet() {
    let dir = temp_dir("fuzz-fleet");
    let local_path = dir.join("local.json");
    let fleet_path = dir.join("fleet.json");
    let seed_args = ["--seed", "5", "--packets", "4000"];

    let status = vericlick()
        .arg("fuzz")
        .args(seed_args)
        .args(["--threads", "2", "--det-json"])
        .arg(&local_path)
        .status()
        .expect("spawn vericlick fuzz");
    assert!(status.success(), "in-process fuzz failed: {status}");

    let status = vericlick()
        .arg("fuzz")
        .args(seed_args)
        .args(["--workers", "2", "--det-json"])
        .arg(&fleet_path)
        .status()
        .expect("spawn vericlick fuzz --workers");
    assert!(status.success(), "fleet fuzz failed: {status}");

    let local = std::fs::read_to_string(&local_path).expect("local report");
    let fleet = std::fs::read_to_string(&fleet_path).expect("fleet report");
    assert_eq!(
        local, fleet,
        "sharding over subprocess workers must not change the report"
    );
    assert!(local.contains("\"seed\":5"), "seed recorded in the report");
    assert!(
        local.contains("\"contradictions\":0"),
        "no proven preset may be contradicted:\n{local}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_fuzz_report_matches_the_golden_file() {
    let dir = temp_dir("fuzz-golden");
    let path = dir.join("fuzz.json");
    let status = vericlick()
        .args(["fuzz", "--seed", "77", "--packets", "50000", "--det-json"])
        .arg(&path)
        .status()
        .expect("spawn vericlick fuzz");
    assert!(status.success(), "fuzz failed: {status}");
    let written = std::fs::read(&path).expect("fuzz report written");
    assert!(
        written == include_bytes!("golden/fuzz_seed77.det.json"),
        "the seeded fuzz report drifted from the golden file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
