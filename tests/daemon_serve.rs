//! End-to-end daemon tests through the real `vericlick` binary:
//!
//! * `vericlick serve` as a separate process, `vericlick worker --join`
//!   announcing itself to the running daemon, `vericlick client` running
//!   the preset matrix twice — the second run plans **zero** element
//!   jobs and ships **zero** summaries (the daemon's store and the
//!   worker's held-set are both warm), and both deterministic reports
//!   are byte-identical to in-process serving.
//! * the fleet-health path with a real signal: `kill -STOP` a worker
//!   process mid-plan and the plan still completes on the survivor,
//!   byte-identical — a stopped process keeps its sockets open, which
//!   only the heartbeat deadline can see through.
//! * a second `vericlick serve` on a Unix socket a live daemon answers on
//!   exits 2 instead of taking the address over, and the first daemon
//!   keeps serving on it.
//! * a daemon that runs out of file descriptors while accepting keeps
//!   serving once they are freed.

use std::io::{BufRead, BufReader, Lines, Read};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use vericlick::orchestrator::{
    preset_scenarios, DaemonClient, VerifyRequest, VerifyService, WorkerAddr,
};

fn vericlick() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vericlick"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vericlick-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A child process killed (SIGKILL — works on stopped processes too) when
/// the test ends, pass or fail.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Read `lines` until one starts with `prefix`; returns its suffix.
fn await_line(lines: &mut Lines<BufReader<ChildStdout>>, prefix: &str) -> String {
    loop {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("stdout closed before a '{prefix}' line"))
            .expect("read child stdout");
        if let Some(rest) = line.trim().strip_prefix(prefix) {
            return rest.to_string();
        }
    }
}

/// Start `vericlick serve` on an OS-chosen port; returns the process, its
/// stdout reader (kept alive so logging never hits a closed pipe), and
/// the bound address.
fn spawn_serve(extra: &[&str]) -> (KillOnDrop, Lines<BufReader<ChildStdout>>, String) {
    let mut child = vericlick()
        .args(["serve", "--listen", "127.0.0.1:0", "--threads", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vericlick serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = await_line(&mut lines, "serve: listening on ");
    (KillOnDrop(child), lines, addr)
}

/// Start `vericlick worker --listen --join <daemon>`; returns once the
/// worker has announced itself to the daemon's fleet.
fn spawn_joined_worker(daemon: &str) -> (KillOnDrop, Lines<BufReader<ChildStdout>>) {
    let mut child = vericlick()
        .args(["worker", "--listen", "127.0.0.1:0", "--capacity", "2"])
        .args(["--join", daemon])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vericlick worker --join");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut lines = BufReader::new(stdout).lines();
    await_line(&mut lines, "worker: joined ");
    (KillOnDrop(child), lines)
}

fn reference_det_json() -> String {
    VerifyService::new()
        .with_threads(4)
        .serve(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .expect("serve matrix")
        .deterministic_json()
        .to_text()
}

#[test]
fn daemon_serves_two_runs_second_ships_nothing() {
    let (_daemon, _daemon_log, addr) = spawn_serve(&[]);
    let (_worker, _worker_log) = spawn_joined_worker(&addr);
    let dir = temp_dir("daemon-serve");

    let mut runs = Vec::new();
    for tag in ["first", "second"] {
        let json = dir.join(format!("{tag}.json"));
        let det = dir.join(format!("{tag}-det.json"));
        let status = vericlick()
            .args(["client", "--connect", &addr, "--matrix", "--json"])
            .arg(&json)
            .arg("--det-json")
            .arg(&det)
            .status()
            .expect("spawn vericlick client");
        assert!(status.success(), "client ({tag} run) failed: {status}");
        runs.push((
            std::fs::read_to_string(&json).expect("operational report"),
            std::fs::read_to_string(&det).expect("deterministic report"),
        ));
    }

    let reference = reference_det_json();
    assert_eq!(
        runs[0].1, reference,
        "daemon-served report must equal in-process serving byte for byte"
    );
    assert_eq!(runs[1].1, reference, "cache temperature must not show");

    // The second run benefits from both warmths: the daemon's store
    // (zero element explorations planned) and the worker's summary
    // held-set (zero summary documents shipped).
    assert!(
        runs[0].0.contains("\"summaries_shipped\":") && !runs[0].0.contains("\"explore_jobs\":0,"),
        "the first run explores: {}",
        runs[0].0
    );
    assert!(
        runs[1].0.contains("\"explore_jobs\":0,"),
        "the second run plans zero element jobs: {}",
        runs[1].0
    );
    assert!(
        runs[1].0.contains("\"summaries_shipped\":0,"),
        "the second run ships zero summaries: {}",
        runs[1].0
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigstopped_worker_never_blocks_plan_completion() {
    // A tight heartbeat so the suspect deadline (4 x interval) is well
    // inside the test budget.
    let (_daemon, _daemon_log, addr) = spawn_serve(&["--heartbeat-ms", "100"]);
    let (victim, mut victim_log) = spawn_joined_worker(&addr);
    let (_survivor, _survivor_log) = spawn_joined_worker(&addr);
    let dir = temp_dir("daemon-sigstop");
    let det = dir.join("det.json");

    // Start the client, wait for the victim worker to begin serving the
    // plan, then stop it cold. SIGSTOP keeps every socket open — the
    // failure mode a disconnect test cannot reproduce — so only the
    // heartbeat deadline can unstick the dispatch.
    let mut client = vericlick()
        .args(["client", "--connect", &addr, "--matrix", "--det-json"])
        .arg(&det)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vericlick client");
    await_line(&mut victim_log, "worker: session from ");
    let stop = Command::new("kill")
        .args(["-STOP", &victim.0.id().to_string()])
        .status()
        .expect("send SIGSTOP");
    assert!(stop.success(), "kill -STOP failed: {stop}");

    let status = client.wait().expect("client exit");
    assert!(
        status.success(),
        "the plan must complete on the survivor: {status}"
    );
    assert_eq!(
        std::fs::read_to_string(&det).expect("deterministic report"),
        reference_det_json(),
        "a stopped worker must not change the report"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_daemon_on_a_live_unix_socket_is_refused() {
    let dir = temp_dir("unix-daemon");
    let path = dir.join("daemon.sock");
    let mut child = vericlick()
        .args(["serve", "--threads", "1", "--listen"])
        .arg(&path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vericlick serve");
    let mut lines = BufReader::new(child.stdout.take().expect("serve stdout")).lines();
    let _first = KillOnDrop(child);
    await_line(&mut lines, "serve: listening on ");

    // The second daemon must refuse the path, not serve on it.
    let mut second = KillOnDrop(
        vericlick()
            .args(["serve", "--listen"])
            .arg(&path)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn a second vericlick serve"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match second.0.try_wait().expect("poll the second daemon") {
            Some(status) => break status.code(),
            None if Instant::now() > deadline => {
                let _ = second.0.kill();
                let _ = second.0.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut stderr = String::new();
    let _ = second
        .0
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr);
    assert_eq!(status, Some(2), "the second daemon kept running: {stderr}");
    assert!(stderr.contains("in use"), "{stderr}");

    // The first daemon still answers on its path.
    let mut client = DaemonClient::connect(&WorkerAddr::Unix(path), None).expect("connect");
    let reply = client
        .verify(&VerifyRequest::Single {
            name: "t".into(),
            pipeline: vericlick::pipeline::parse_config("t :: DecTTL();").unwrap(),
            property: vericlick::verifier::Property::CrashFreedom,
        })
        .expect("the first daemon serves");
    assert!(reply.ok, "{}", reply.display);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_out_of_descriptors_keeps_serving() {
    // `ulimit` in the shell limits only that shell and the daemon it
    // execs: 64 descriptors, two per session, run out after about thirty
    // idle connections.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 64 && exec "$0" serve --listen 127.0.0.1:0 --threads 1"#)
        .arg(env!("CARGO_BIN_EXE_vericlick"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vericlick serve under ulimit");
    let mut lines = BufReader::new(child.stdout.take().expect("serve stdout")).lines();
    let _daemon = KillOnDrop(child);
    let addr = await_line(&mut lines, "serve: listening on ");

    let idle: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(&addr).expect("connect an idle peer"))
        .collect();
    // Wait until the daemon says it could not take a connection.
    loop {
        let line = lines
            .next()
            .expect("the daemon exited instead of retrying its accept")
            .expect("read serve stdout");
        if line.contains("accept failed") || line.contains("dropped") {
            break;
        }
    }
    drop(idle);

    let dir = temp_dir("daemon-emfile");
    let det = dir.join("det.json");
    let status = vericlick()
        .args(["client", "--connect", &addr, "--matrix", "--det-json"])
        .arg(&det)
        .status()
        .expect("spawn vericlick client");
    assert!(status.success(), "client failed: {status}");
    assert_eq!(
        std::fs::read_to_string(&det).expect("det report"),
        reference_det_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
