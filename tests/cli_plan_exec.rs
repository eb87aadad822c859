//! Cross-process proof of the plan/execute split, through the real
//! `vericlick` binary:
//!
//! * process A (`vericlick plan`) serialises the preset-matrix job plan,
//! * process B (`vericlick exec-plan --workers 2`) reads the file and
//!   executes it, shipping the explore jobs to **worker subprocesses**
//!   over stdio,
//! * the deterministic report B writes is byte-identical to serving the
//!   same request in *this* process, with the preset verdict mix
//!   (15 proven / 5 violated / 0 unknown) preserved.
//!
//! This is the acceptance test for the remote-worker path: three distinct
//! processes (planner, executor, workers) cooperating through nothing but
//! the serialised artifacts.

use std::path::PathBuf;
use std::process::Command;
use vericlick::orchestrator::{preset_scenarios, VerifyRequest, VerifyService};

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
fn plan_in_one_process_execute_in_another_byte_identical() {
    let dir = temp_dir("plan-exec");
    let plan_path = dir.join("plan.json");
    let det_path = dir.join("deterministic.json");

    // Process A: serialise the plan.
    let status = vericlick()
        .args(["plan", "--matrix", "-o"])
        .arg(&plan_path)
        .status()
        .expect("spawn vericlick plan");
    assert!(status.success(), "plan failed: {status}");
    let plan_text = std::fs::read_to_string(&plan_path).expect("plan file");
    assert!(
        plan_text.contains("\"schema\":3"),
        "plan is schema-versioned"
    );

    // Process B: execute it on subprocess workers (which are processes
    // C, D, ... speaking the stdio protocol).
    let status = vericlick()
        .arg("exec-plan")
        .arg(&plan_path)
        .args(["--workers", "2", "--det-json"])
        .arg(&det_path)
        .status()
        .expect("spawn vericlick exec-plan");
    assert!(status.success(), "exec-plan failed: {status}");

    // This process: serve the same request directly.
    let service = VerifyService::new().with_threads(4);
    let served = service
        .serve(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .expect("serve matrix");
    assert_eq!(
        served.verdict_counts(),
        (15, 5, 0),
        "preset verdict mix drifted"
    );

    let executed = std::fs::read_to_string(&det_path).expect("deterministic report");
    assert_eq!(
        executed,
        served.deterministic_json().to_text(),
        "cross-process execution must be byte-identical to in-process serving"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_pipes_into_exec_plan_in_process_mode() {
    use std::io::Write;
    use std::process::Stdio;

    // `vericlick plan --matrix | vericlick exec-plan - --in-process`,
    // spelled out: capture A's stdout, feed it to B's stdin.
    let plan = vericlick()
        .args(["plan", "--matrix"])
        .stderr(Stdio::null())
        .output()
        .expect("spawn vericlick plan");
    assert!(plan.status.success());

    let mut exec = vericlick()
        .args(["exec-plan", "-", "--in-process", "--threads", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vericlick exec-plan");
    exec.stdin
        .take()
        .expect("stdin piped")
        .write_all(&plan.stdout)
        .expect("pipe plan");
    let out = exec.wait_with_output().expect("exec-plan output");
    assert!(out.status.success(), "exec-plan failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("20 scenarios (15 proven, 5 violated, 0 unknown)"),
        "unexpected exec-plan output:\n{text}"
    );
}

/// The loopback-TCP acceptance test: `vericlick worker --listen` processes
/// on OS-chosen ports, a planner process, and an executor process wired to
/// them with `--workers addr,addr` — the deterministic report must equal
/// in-process serving byte for byte, with both explorations and Step-2
/// compositions executed by the socket workers.
#[test]
fn exec_plan_over_loopback_tcp_workers_byte_identical() {
    use std::io::BufRead;
    use std::process::Stdio;

    // Start two socket workers; parse the announced address of each. The
    // stdout readers stay alive for the whole test so worker logging never
    // hits a closed pipe.
    let mut workers = Vec::new();
    let mut readers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let mut child = vericlick()
            .args(["worker", "--listen", "127.0.0.1:0", "--capacity", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn vericlick worker --listen");
        let stdout = child.stdout.take().expect("worker stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("worker announces its address")
                .expect("read worker stdout");
            if let Some(addr) = line.trim().strip_prefix("worker: listening on ") {
                break addr.to_string();
            }
        };
        addrs.push(addr);
        readers.push(lines);
        workers.push(child);
    }

    let dir = temp_dir("tcp-exec");
    let plan_path = dir.join("plan.json");
    let det_path = dir.join("deterministic.json");

    // Planner process.
    let status = vericlick()
        .args(["plan", "--matrix", "-o"])
        .arg(&plan_path)
        .status()
        .expect("spawn vericlick plan");
    assert!(status.success(), "plan failed: {status}");

    // Executor process, dispatching to the TCP workers.
    let status = vericlick()
        .arg("exec-plan")
        .arg(&plan_path)
        .args(["--workers", &addrs.join(","), "--det-json"])
        .arg(&det_path)
        .status()
        .expect("spawn vericlick exec-plan");
    assert!(status.success(), "exec-plan failed: {status}");

    // Reference: serve the same request in this process.
    let service = VerifyService::new().with_threads(4);
    let served = service
        .serve(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .expect("serve matrix");
    assert_eq!(served.verdict_counts(), (15, 5, 0));
    let executed = std::fs::read_to_string(&det_path).expect("deterministic report");
    assert_eq!(
        executed,
        served.deterministic_json().to_text(),
        "TCP-worker execution must be byte-identical to in-process serving"
    );

    for mut worker in workers {
        let _ = worker.kill();
        let _ = worker.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_exits_zero_and_no_args_exits_two() {
    let status = vericlick().arg("--help").status().expect("spawn");
    assert!(status.success(), "--help must exit 0, got {status}");
    let status = vericlick().status().expect("spawn");
    assert_eq!(status.code(), Some(2), "no subcommand must exit 2");
}

#[test]
fn watch_demo_smoke() {
    let status = vericlick()
        .args(["watch", "--demo", "--threads", "2"])
        .status()
        .expect("spawn vericlick watch");
    assert!(status.success(), "watch --demo failed: {status}");
}
