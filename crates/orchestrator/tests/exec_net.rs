//! Integration tests of the networked execution path: socket workers
//! served by real in-process listener threads, the pull-based dispatch
//! queue, worker-fault recovery (drain-and-requeue), and the hello
//! version gate.
//!
//! The acceptance bar everywhere is byte-identity: whatever transport ran
//! the jobs — and whatever died along the way — the deterministic report
//! must equal the in-process one.

use dataplane_orchestrator::exec::transport::{read_frame, write_frame};
use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::{
    serve_listener, Executor, HeartbeatConfig, Listener, NamedConfig, PropertySelect,
    VerifyRequest, VerifyService, WorkerAddr, WorkerFleet,
};
use std::io::BufReader;
use std::net::TcpListener;

const ROUTER: &str = r#"
    cls :: Classifier(12/0800);
    strip :: EthDecap();
    chk :: CheckIPHeader();
    rt :: IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1);
    ttl0 :: DecTTL();
    ttl1 :: DecTTL();
    out0 :: Sink();
    out1 :: Sink();
    cls -> strip -> chk -> rt;
    rt[0] -> ttl0 -> out0;
    rt[1] -> ttl1 -> out1;
"#;

const FILTER: &str = r#"
    strip :: EthDecap();
    chk :: CheckIPHeader();
    f :: SrcFilter(203.0.113.9);
    out :: Sink();
    strip -> chk -> f -> out;
"#;

/// Start a real worker of `capacity` slots on a loopback TCP listener
/// (port chosen by the OS) that keeps accepting sessions on a background
/// thread until the test process exits. Returns its address.
fn spawn_persistent_tcp_worker(capacity: usize) -> WorkerAddr {
    let listener = Listener::bind(&WorkerAddr::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = listener.local();
    std::thread::spawn(move || serve_listener(listener, capacity, false, &mut |_| {}));
    addr
}

/// A worker that completes the handshake, reads one job frame, then drops
/// the connection — the "killed mid-plan" peer. Accepts any number of
/// sessions (the explore phase and the compose phase each reconnect) and
/// dies the same way in each.
fn spawn_flaky_tcp_worker() -> WorkerAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = WorkerAddr::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            // Handshake like a healthy worker would.
            let Ok(Some(hello)) = read_frame(&mut reader) else {
                continue;
            };
            assert_eq!(hello.get("kind").and_then(Json::as_str), Some("hello"));
            let reply = Json::obj([
                (
                    "schema",
                    Json::int(dataplane_orchestrator::exec::WORKER_SCHEMA),
                ),
                ("kind", Json::str("hello")),
                ("proto", Json::str("vericlick-worker")),
                ("capacity", Json::int(1u64)),
            ]);
            if write_frame(&mut writer, &reply).is_err() {
                continue;
            }
            // Accept one job, answer nothing, die.
            let _ = read_frame(&mut reader);
            drop(writer);
        }
    });
    addr
}

/// A worker that completes the handshake and then wedges: the connection
/// stays open, but no job result (and no pong) ever comes back — the
/// SIGSTOP / silent-partition failure mode a plain disconnect test cannot
/// reproduce. Accepts any number of sessions and wedges in each.
fn spawn_wedged_tcp_worker() -> WorkerAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = WorkerAddr::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let Ok(Some(hello)) = read_frame(&mut reader) else {
                    return;
                };
                assert_eq!(hello.get("kind").and_then(Json::as_str), Some("hello"));
                let reply = Json::obj([
                    (
                        "schema",
                        Json::int(dataplane_orchestrator::exec::WORKER_SCHEMA),
                    ),
                    ("kind", Json::str("hello")),
                    ("proto", Json::str("vericlick-worker")),
                    ("capacity", Json::int(1u64)),
                    ("held", Json::Arr(Vec::new())),
                ]);
                if write_frame(&mut writer, &reply).is_err() {
                    return;
                }
                // Wedge: keep both stream halves open, answer nothing.
                std::thread::sleep(std::time::Duration::from_secs(30));
            });
        }
    });
    addr
}

fn two_config_request() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: dataplane_orchestrator::config_scenarios(
            &[
                NamedConfig::new("router", ROUTER),
                NamedConfig::new("filter", FILTER),
            ],
            &|name| PropertySelect::Default.properties_for(name),
        )
        .unwrap(),
    }
}

#[test]
fn tcp_fleet_executes_explores_and_compositions_byte_identical() {
    // Reference: serve in-process.
    let service = VerifyService::new().with_threads(2);
    let served = service.serve(two_config_request()).unwrap();
    let reference = served.deterministic_json().to_text();

    // Remote: two real TCP workers, plan executed by a fresh service with
    // a cold store — every exploration AND every composition goes over
    // the wire.
    let fleet = WorkerFleet::sockets(vec![
        spawn_persistent_tcp_worker(2),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&two_config_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "TCP-executed plan must reproduce the in-process report byte for byte"
    );

    let matrix = executed.matrix().unwrap();
    assert_eq!(
        matrix.peak_live_threads, 0,
        "no composition may run in the coordinating process"
    );
    let stats = matrix.stats.as_ref().expect("fleet runs report stats");
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.workers_lost, 0);
    assert_eq!(stats.explore_jobs, plan.jobs.len());
    assert_eq!(stats.compose_jobs, plan.scenarios.len());
    assert_eq!(
        stats.jobs_completed,
        plan.jobs.len() + plan.scenarios.len(),
        "every job completed exactly once"
    );
    assert_eq!(stats.jobs_requeued, 0);
}

#[test]
fn unix_socket_worker_round_trips() {
    let dir = std::env::temp_dir().join(format!("vericlick-unix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("worker.sock");
    let listener = Listener::bind(&WorkerAddr::Unix(path)).unwrap();
    let addr = listener.local();
    std::thread::spawn(move || serve_listener(listener, 2, false, &mut |_| {}));

    let service = VerifyService::new().with_threads(2);
    let reference = service
        .serve(two_config_request())
        .unwrap()
        .deterministic_json()
        .to_text();
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&two_config_request()).unwrap();
    let executed = fresh
        .execute_plan(&plan, &WorkerFleet::sockets(vec![addr]))
        .unwrap();
    assert_eq!(executed.deterministic_json().to_text(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_worker_jobs_are_requeued_and_report_stays_byte_identical() {
    let service = VerifyService::new().with_threads(2);
    let reference = service
        .serve(two_config_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // One healthy worker, one that dies after pulling a job in every
    // session: the healthy one must drain the requeued work.
    let fleet = WorkerFleet::sockets(vec![
        spawn_flaky_tcp_worker(),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&two_config_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "a worker death mid-plan must not change the report"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert_eq!(stats.workers_lost, 1, "the flaky worker was noticed");
    assert!(
        stats.jobs_requeued >= 1,
        "its in-flight jobs were requeued: {stats:?}"
    );
    assert_eq!(
        stats.jobs_completed,
        plan.jobs.len() + plan.scenarios.len(),
        "every job still completed exactly once"
    );
}

#[test]
fn wedged_worker_is_marked_suspect_and_its_jobs_requeue_to_survivors() {
    let service = VerifyService::new().with_threads(2);
    let reference = service
        .serve(two_config_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // One worker that handshakes and then goes silent without closing its
    // connection, one healthy worker. Without read deadlines the dispatch
    // would block on the silent socket forever; with the heartbeat it
    // must mark the wedge suspect and requeue to the survivor.
    let fleet = WorkerFleet::sockets(vec![
        spawn_wedged_tcp_worker(),
        spawn_persistent_tcp_worker(2),
    ])
    .with_heartbeat(HeartbeatConfig::from_interval_ms(100));
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&two_config_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "a wedged worker must not change the report"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert!(
        stats.workers_suspect >= 1,
        "the silent worker was marked suspect: {stats:?}"
    );
    assert!(
        stats.jobs_requeued >= 1,
        "its in-flight jobs were requeued: {stats:?}"
    );
    assert_eq!(
        stats.jobs_completed,
        plan.jobs.len() + plan.scenarios.len(),
        "every job still completed exactly once"
    );
    // The registry notes name the heartbeat, not a generic disconnect.
    assert!(
        fleet
            .registry()
            .workers()
            .iter()
            .any(|e| e.note.as_deref().is_some_and(|n| n.contains("suspect"))),
        "the worker entry records why it was abandoned"
    );
}

/// The linear_router preset rows: every property has a non-empty suspect
/// set (outline weights 31/31/37), so compose sharding actually produces
/// wire shards — the ROUTER/FILTER configs above are suspect-free and
/// would verify in place.
fn linear_router_request() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: dataplane_orchestrator::preset_scenarios()
            .into_iter()
            .filter(|s| s.pipeline_name == "linear_router")
            .collect(),
    }
}

/// The temporal preset rows: one bundled LTL spec per preset pipeline,
/// shipped over the wire as `compose` jobs (temporal properties tag no
/// suspects, so they never shard — each travels as one whole-scenario job
/// even on a fleet that cuts).
fn temporal_request() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: dataplane_orchestrator::preset_scenarios()
            .into_iter()
            .filter(|s| matches!(s.property, dataplane_verifier::Property::Temporal(_)))
            .collect(),
    }
}

#[test]
fn temporal_jobs_over_tcp_are_byte_identical_even_when_a_worker_dies() {
    let service = VerifyService::new().with_threads(2);
    let served = service.serve(temporal_request()).unwrap();
    let reference = served.deterministic_json().to_text();
    assert!(
        reference.contains("\"buchi_states\""),
        "temporal scenarios report automaton sizes"
    );

    // Two healthy TCP workers: every Büchi product search runs remote.
    let fleet = WorkerFleet::sockets(vec![
        spawn_persistent_tcp_worker(2),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&temporal_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "TCP-executed temporal plan must reproduce the in-process report byte for byte"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert_eq!(
        stats.temporal_jobs,
        plan.scenarios.len(),
        "every scenario travelled as a temporal wire job: {stats:?}"
    );
    assert_eq!(stats.workers_lost, 0);

    // Same plan with one worker that dies after pulling a job in every
    // session: requeue to the survivor must not change a byte.
    let fleet = WorkerFleet::sockets(vec![
        spawn_flaky_tcp_worker(),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&temporal_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "a worker death mid-plan must not change the temporal report"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert_eq!(stats.workers_lost, 1, "the flaky worker was noticed");
    assert!(
        stats.jobs_requeued >= 1,
        "its in-flight jobs were requeued: {stats:?}"
    );
}

#[test]
fn sharded_compose_over_tcp_is_byte_identical() {
    let service = VerifyService::new().with_threads(2);
    let reference = service
        .serve(linear_router_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // Same request on two real capacity-2 TCP workers: four live slots,
    // so Step 2 is cut into shards.
    let fleet = WorkerFleet::sockets(vec![
        spawn_persistent_tcp_worker(2),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&linear_router_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "sharded TCP execution must reproduce the in-process report byte for byte"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert!(
        stats.compose_shards > 0,
        "shards were offered to the queue: {stats:?}"
    );
    assert_eq!(
        stats.compose_jobs, 0,
        "the shard path replaces whole-composition jobs: {stats:?}"
    );
    assert_eq!(stats.workers_lost, 0);
}

#[test]
fn a_one_slot_fleet_ships_whole_compositions() {
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(linear_router_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // One capacity-1 worker: nothing can run beside anything else, so no
    // cut would pay for itself and Step 2 travels whole.
    let fleet = WorkerFleet::sockets(vec![spawn_persistent_tcp_worker(1)]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&linear_router_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(executed.deterministic_json().to_text(), reference);
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert_eq!(stats.compose_shards, 0, "one slot cuts nothing: {stats:?}");
    assert_eq!(
        stats.compose_jobs + stats.temporal_jobs,
        4,
        "every scenario went out whole: {stats:?}"
    );
}

#[test]
fn live_capacity_counts_a_long_lived_fleet_s_worker_once() {
    // Every dispatch phase re-registers the worker's session; the live
    // capacity must stay the worker's two slots, request after request.
    let fleet = WorkerFleet::sockets(vec![spawn_persistent_tcp_worker(2)]);
    let service = VerifyService::new().with_threads(2);
    let plan = service.plan_request(&linear_router_request()).unwrap();
    for request in 0..3 {
        service.execute_plan(&plan, &fleet).unwrap();
        assert_eq!(fleet.live_capacity(), Some(2), "after request {request}");
    }
}

#[test]
fn killed_worker_mid_shard_requeues_and_report_stays_byte_identical() {
    let service = VerifyService::new().with_threads(2);
    let reference = service
        .serve(linear_router_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    // One worker that dies after pulling its first job in every session,
    // one healthy worker: shards the flaky peer pulled must requeue to
    // the survivor without changing the report.
    let fleet = WorkerFleet::sockets(vec![
        spawn_flaky_tcp_worker(),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&linear_router_request()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "a worker death mid-shard must not change the report"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert!(
        stats.compose_shards > 0,
        "shards were offered to the queue: {stats:?}"
    );
    assert_eq!(stats.workers_lost, 1, "the flaky worker was noticed");
    assert!(
        stats.jobs_requeued >= 1,
        "its in-flight work was requeued: {stats:?}"
    );
}

#[test]
fn violation_cancels_sibling_shards_without_changing_the_report() {
    // The three buggy presets all violate their property, so every
    // scenario's first violating shard fires the cancellation path for
    // its siblings — whether a cancel frame lands in time or a queued
    // sibling resolves synthetically, the fold computes the remainder
    // inline and the report must not move.
    let buggy = || VerifyRequest::Matrix {
        scenarios: dataplane_orchestrator::preset_scenarios()
            .into_iter()
            .filter(|s| s.pipeline_name == "buggy")
            .collect(),
    };
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(buggy())
        .unwrap()
        .deterministic_json()
        .to_text();

    let fleet = WorkerFleet::sockets(vec![
        spawn_persistent_tcp_worker(2),
        spawn_persistent_tcp_worker(2),
    ]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&buggy()).unwrap();
    let executed = fresh.execute_plan(&plan, &fleet).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "early-exit cancellation must be pure work-avoidance"
    );
    let stats = executed.matrix().unwrap().stats.clone().unwrap();
    assert!(
        stats.compose_shards > 0,
        "shards were offered to the queue: {stats:?}"
    );
    // Whether any sibling was actually cancelled is a race (a fast fleet
    // may finish every shard first); the counter just must not exceed
    // what was offered.
    assert!(
        stats.shards_cancelled <= stats.compose_shards,
        "cancellation accounting stays within the offered shards: {stats:?}"
    );
}

#[test]
fn second_plan_against_a_warm_worker_ships_zero_summaries() {
    // Warm the coordinator's store in-process so the explore phase has
    // nothing to dispatch and *every* summary must travel in compose
    // frames (a fresh socket worker holds none of them).
    let service = VerifyService::new().with_threads(2);
    let reference = service
        .serve(two_config_request())
        .unwrap()
        .deterministic_json()
        .to_text();
    let addr = spawn_persistent_tcp_worker(2);
    let plan = service.plan_request(&two_config_request()).unwrap();

    let cold = WorkerFleet::sockets(vec![addr.clone()]);
    let first = service.execute_plan(&plan, &cold).unwrap();
    assert_eq!(first.deterministic_json().to_text(), reference);
    let stats = cold.registry().stats();
    assert!(
        stats.summaries_shipped > 0 && stats.summary_bytes_shipped > 0,
        "a cold worker receives full summary documents: {stats:?}"
    );
    // Later compose jobs in the *same* session already dedup against
    // what the first frames shipped — only the first touch travels.

    // Second plan, fresh fleet, same worker process: its hello advertises
    // everything it folded in the first session, so no summary document
    // is re-shipped — only `held` markers travel.
    let warm = WorkerFleet::sockets(vec![addr]);
    let second = service.execute_plan(&plan, &warm).unwrap();
    assert_eq!(
        second.deterministic_json().to_text(),
        reference,
        "dedup must not change the report"
    );
    let stats = warm.registry().stats();
    assert_eq!(
        stats.summaries_shipped, 0,
        "the warm worker already holds every summary: {stats:?}"
    );
    assert!(
        stats.summaries_deduped > 0 && stats.summary_bytes_shipped == 0,
        "the dedup win is visible in the stats: {stats:?}"
    );
}

#[test]
fn version_mismatch_worker_is_rejected_cleanly() {
    // A "worker" that replies to the hello with a wrong schema version.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = WorkerAddr::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let _ = read_frame(&mut reader);
            let reply = Json::obj([
                ("schema", Json::int(1u64)),
                ("kind", Json::str("hello")),
                ("proto", Json::str("vericlick-worker")),
                ("capacity", Json::int(1u64)),
            ]);
            let _ = write_frame(&mut writer, &reply);
        }
    });

    let fleet = WorkerFleet::sockets(vec![addr]);
    let service = VerifyService::new().with_threads(2);
    let plan = service.plan_request(&two_config_request()).unwrap();
    let result = service.execute_plan(&plan, &fleet);
    let err = result.err().expect("mismatched fleet cannot execute");
    let text = err.to_string();
    assert!(
        text.contains("version mismatch") || text.contains("unfinished"),
        "the error names the cause: {text}"
    );
    let stats = fleet.registry().stats();
    assert_eq!(stats.workers_lost, 1);
    assert_eq!(stats.jobs_completed, 0);
}

#[test]
fn single_session_listener_exits_after_once() {
    // `--once` semantics: the listener serves one session and returns.
    let listener = Listener::bind(&WorkerAddr::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = listener.local();
    std::thread::spawn(move || serve_listener(listener, 2, true, &mut |_| {}));
    let service = VerifyService::new().with_threads(1);
    let plan = service
        .plan_request(&VerifyRequest::Matrix {
            scenarios: dataplane_orchestrator::config_scenarios(
                &[NamedConfig::new("filter", FILTER)],
                &|name| PropertySelect::Default.properties_for(name),
            )
            .unwrap(),
        })
        .unwrap();
    // One session is enough only for the explore phase; compose reconnects
    // and must fail — which proves the session actually closed.
    let fleet = WorkerFleet::sockets(vec![addr]);
    let result = service.execute_plan(&plan, &fleet);
    assert!(
        result.is_err(),
        "the once-listener is gone for the compose phase"
    );
}
