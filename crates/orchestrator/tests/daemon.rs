//! Integration tests of the verification daemon: warm-store reuse across
//! client sessions, admission control, runtime worker joins with summary
//! dedup, and the client protocol's error handling.
//!
//! The acceptance bar mirrors the exec tests: whatever path served the
//! request — in-process, via the daemon, via the daemon *and* a socket
//! fleet — the deterministic report must be byte-identical.

use dataplane_orchestrator::daemon::{CLIENT_PROTO, CLIENT_SCHEMA};
use dataplane_orchestrator::exec::transport::{read_frame, write_frame};
use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::{
    config_scenarios, join_fleet, serve_listener, Daemon, DaemonClient, DaemonConfig, NamedConfig,
    PropertySelect, VerifyRequest, VerifyService, WorkerAddr,
};
use std::io::BufReader;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

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

fn two_config_request() -> VerifyRequest {
    VerifyRequest::Matrix {
        scenarios: config_scenarios(
            &[
                NamedConfig::new("router", ROUTER),
                NamedConfig::new("filter", FILTER),
            ],
            &|name| PropertySelect::Default.properties_for(name),
        )
        .unwrap(),
    }
}

/// Start `daemon` on a loopback TCP listener (port chosen by the OS) on a
/// background thread; returns the bound address parsed from its first log
/// line.
fn spawn_daemon(daemon: Daemon) -> WorkerAddr {
    let (tx, rx) = mpsc::channel();
    let serving = daemon.clone();
    std::thread::spawn(move || {
        let tx = Mutex::new(Some(tx));
        let log: Arc<dyn Fn(&str) + Send + Sync> = Arc::new(move |line: &str| {
            if let Some(addr) = line.strip_prefix("listening on ") {
                if let Some(tx) = tx.lock().unwrap().take() {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let _ = serving.serve(&WorkerAddr::Tcp("127.0.0.1:0".into()), false, log);
    });
    WorkerAddr::Tcp(rx.recv().expect("daemon announced its address"))
}

/// Start a worker that keeps accepting sessions on one listener until the
/// test process exits.
fn spawn_persistent_tcp_worker() -> WorkerAddr {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut tx = Some(tx);
        let mut log = move |line: &str| {
            if let Some(addr) = line.strip_prefix("listening on ") {
                if let Some(tx) = tx.take() {
                    tx.send(addr.to_string()).unwrap();
                }
            }
        };
        let _ = serve_listener(&WorkerAddr::Tcp("127.0.0.1:0".into()), 2, false, &mut log);
    });
    WorkerAddr::Tcp(rx.recv().expect("worker announced its address"))
}

#[test]
fn second_session_on_a_warm_daemon_plans_zero_element_jobs() {
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(two_config_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    let addr = spawn_daemon(Daemon::new(DaemonConfig {
        threads: 2,
        ..DaemonConfig::default()
    }));

    // Session one: a cold store, so Step-1 explorations run.
    let mut first = DaemonClient::connect(&addr, None).unwrap();
    let reply = first.verify(&two_config_request()).unwrap();
    assert_eq!(reply.request, "matrix");
    assert!(reply.ok, "{}", reply.display);
    assert!(
        reply.report.get("explore_jobs").and_then(Json::as_u64) > Some(0),
        "a cold daemon explores elements: {}",
        reply.report.to_text()
    );
    assert_eq!(reply.det_report.to_text(), reference);
    drop(first);

    // Session two, a *new connection*: the shared store is warm, so the
    // same matrix plans zero element jobs — Step 1 entirely from memory.
    let mut second = DaemonClient::connect(&addr, None).unwrap();
    let reply = second.verify(&two_config_request()).unwrap();
    assert_eq!(
        reply.report.get("explore_jobs").and_then(Json::as_u64),
        Some(0),
        "a warm daemon re-plans no element jobs: {}",
        reply.report.to_text()
    );
    assert_eq!(
        reply.det_report.to_text(),
        reference,
        "cache temperature must not change the deterministic report"
    );
}

#[test]
fn admission_refuses_sessions_past_the_limit_and_recovers() {
    // max_queue: 0 restores the pre-queue behaviour: an over-limit hello
    // is refused outright (with a retry hint) instead of waiting in line.
    let addr = spawn_daemon(Daemon::new(DaemonConfig {
        threads: 2,
        max_sessions: 1,
        max_queue: 0,
        ..DaemonConfig::default()
    }));

    // The one admitted session holds its slot as long as it is connected.
    let admitted = DaemonClient::connect(&addr, None).unwrap();
    let refused = DaemonClient::connect(&addr, None);
    match refused {
        Err(e) => {
            let text = e.to_string();
            assert!(text.contains("busy"), "the refusal names the reason: {e}");
            assert!(
                text.contains("retry_after_ms"),
                "the refusal carries a retry hint: {e}"
            );
        }
        Ok(_) => panic!("a second session must be refused at max_sessions = 1"),
    }
    drop(admitted);

    // Once the admitted session closes, the slot frees (the session
    // thread notices the closed stream asynchronously — poll briefly).
    let mut recovered = None;
    for _ in 0..100 {
        match DaemonClient::connect(&addr, None) {
            Ok(client) => {
                recovered = Some(client);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let mut client = recovered.expect("the slot frees after the first session closes");
    let reply = client.verify(&two_config_request()).unwrap();
    assert!(reply.ok, "{}", reply.display);
}

#[test]
fn a_worker_joined_at_runtime_executes_jobs_and_dedups_summaries() {
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(two_config_request())
        .unwrap()
        .deterministic_json()
        .to_text();

    let daemon = Daemon::new(DaemonConfig {
        threads: 2,
        ..DaemonConfig::default()
    });
    let addr = spawn_daemon(daemon.clone());
    assert!(daemon.workers().is_empty(), "the pool starts empty");

    // A worker joins the running daemon through the same listener the
    // clients use.
    let worker = spawn_persistent_tcp_worker();
    assert_eq!(join_fleet(&addr, &worker).unwrap(), 1);
    assert_eq!(daemon.workers().len(), 1);

    // First request: dispatched to the joined worker (dispatch stats are
    // present and account for every job).
    let mut client = DaemonClient::connect(&addr, None).unwrap();
    let first = client.verify(&two_config_request()).unwrap();
    assert!(first.ok, "{}", first.display);
    assert_eq!(first.det_report.to_text(), reference);
    assert_eq!(first.dispatch_stat("workers"), Some(1));
    assert!(
        first.dispatch_stat("jobs_completed") > Some(0),
        "the joined worker ran the plan: {}",
        first.dispatch.to_text()
    );

    // Second request on the same session: the daemon's store is warm
    // (zero explore jobs) and the worker's summary store is warm too —
    // its hello advertises every fingerprint it folded, so no summary
    // document is re-shipped.
    let second = client.verify(&two_config_request()).unwrap();
    assert_eq!(second.det_report.to_text(), reference);
    assert_eq!(
        second.report.get("explore_jobs").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        second.dispatch_stat("summaries_shipped"),
        Some(0),
        "a warm worker receives no summary documents: {}",
        second.dispatch.to_text()
    );
    assert!(
        second.dispatch_stat("summaries_deduped") > Some(0),
        "the dedup win is visible to the client: {}",
        second.dispatch.to_text()
    );
}

#[test]
fn a_single_request_is_answered_alike_before_and_after_a_worker_joins() {
    let single = || VerifyRequest::Single {
        name: "router".into(),
        pipeline: dataplane_pipeline::parse_config(ROUTER).unwrap(),
        property: dataplane_verifier::Property::CrashFreedom,
    };
    let daemon = Daemon::new(DaemonConfig {
        threads: 2,
        ..DaemonConfig::default()
    });
    let addr = spawn_daemon(daemon.clone());
    let mut client = DaemonClient::connect(&addr, None).unwrap();

    // No worker yet: the session's own pool serves the request.
    let alone = client.verify(&single()).unwrap();
    assert_eq!(alone.request, "single");
    assert_eq!(alone.dispatch, Json::Null);

    // The same request once a worker has joined: the fleet runs it, and
    // the reply is the same document, not a one-scenario matrix.
    assert_eq!(
        join_fleet(&addr, &spawn_persistent_tcp_worker()).unwrap(),
        1
    );
    let on_the_fleet = client.verify(&single()).unwrap();
    assert_eq!(on_the_fleet.request, "single");
    assert!(
        on_the_fleet.dispatch_stat("jobs_completed") > Some(0),
        "the joined worker ran the request: {}",
        on_the_fleet.dispatch.to_text()
    );
    assert_eq!(
        on_the_fleet.det_report.get("kind").and_then(Json::as_str),
        Some("single")
    );
    assert_eq!(
        on_the_fleet.det_report.to_text(),
        alone.det_report.to_text()
    );
}

/// Open a raw client session on `spec`: send the hello and wait for the
/// daemon's hello reply, through a `queued` frame if admission parks us.
/// Every read on the stream gives up after a few seconds, so a slot that
/// never frees fails the test instead of hanging it.
fn raw_session(spec: &str) -> (std::net::TcpStream, BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(spec).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let hello = Json::obj([
        ("schema", Json::int(CLIENT_SCHEMA)),
        ("kind", Json::str("hello")),
        ("proto", Json::str(CLIENT_PROTO)),
    ]);
    write_frame(&mut writer, &hello).unwrap();
    loop {
        let reply = read_frame(&mut reader)
            .expect("a hello reply within the read deadline")
            .expect("the daemon answers the hello");
        match reply.get("kind").and_then(Json::as_str) {
            Some("hello") => return (writer, reader),
            Some("queued") => continue,
            _ => panic!("expected a hello reply, got {}", reply.to_text()),
        }
    }
}

#[test]
fn a_hostile_frame_ends_its_session_and_the_next_session_is_served() {
    use dataplane_orchestrator::exec::transport::MAX_FRAME_BYTES;
    use std::io::{ErrorKind, Read, Write};

    // One session slot and one queue place: each new session waits in
    // admission until the one before it has released the slot.
    let addr = spawn_daemon(Daemon::new(DaemonConfig {
        threads: 2,
        max_sessions: 1,
        max_queue: 1,
        ..DaemonConfig::default()
    }));
    let WorkerAddr::Tcp(spec) = &addr else {
        panic!("expected a TCP daemon address, got {addr:?}");
    };
    // Two abuses of an admitted session's verify frame: nesting deep enough
    // to overflow a recursive parser's stack, and a line that never ends.
    let deep = format!(
        "{{\"kind\":\"verify\",\"request\":{}\n",
        "[".repeat(100_000)
    );
    let endless = vec![b'x'; 1 << 20];
    let abuses: [(&[u8], usize); 2] = [
        (deep.as_bytes(), 1),
        (&endless, (MAX_FRAME_BYTES >> 20) + 1),
    ];
    for (chunk, repeats) in abuses {
        let (mut stream, mut reader) = raw_session(spec);
        for _ in 0..repeats {
            // The daemon hangs up mid-line once the cap is passed.
            if stream.write_all(chunk).is_err() {
                break;
            }
        }
        // The daemon answers nothing and closes the stream: the session is
        // over, its process is not. (A reset instead of a clean close is
        // fine; running into the read deadline is not.)
        let mut rest = Vec::new();
        if let Err(e) = reader.read_to_end(&mut rest) {
            assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "the hostile session was not ended: {e}"
            );
        }
        assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));

        // The next session is admitted once the hostile one has released
        // the slot, and is served.
        let (mut stream, mut reader) = raw_session(spec);
        write_frame(
            &mut stream,
            &Json::obj([
                ("schema", Json::int(CLIENT_SCHEMA)),
                ("kind", Json::str("verify")),
                ("request", two_config_request().to_json().unwrap()),
            ]),
        )
        .unwrap();
        let response = read_frame(&mut reader)
            .expect("a response within the read deadline")
            .expect("a response frame");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            response.to_text()
        );
    }
}

#[test]
fn over_limit_hellos_queue_and_are_served_when_a_slot_frees() {
    let addr = spawn_daemon(Daemon::new(DaemonConfig {
        threads: 2,
        max_sessions: 1,
        max_queue: 1,
        ..DaemonConfig::default()
    }));
    let spec = match &addr {
        WorkerAddr::Tcp(spec) => spec.clone(),
        other => panic!("expected a TCP daemon address, got {other:?}"),
    };
    let hello = || {
        Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("hello")),
            ("proto", Json::str(CLIENT_PROTO)),
        ])
    };

    // The one admitted session holds the only slot.
    let admitted = DaemonClient::connect(&addr, None).unwrap();

    // The second hello is parked in the queue and told its position.
    let mut stream = std::net::TcpStream::connect(&spec).unwrap();
    write_frame(&mut stream, &hello()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let queued = read_frame(&mut reader).unwrap().expect("a queued frame");
    assert_eq!(queued.get("kind").and_then(Json::as_str), Some("queued"));
    assert_eq!(queued.get("position").and_then(Json::as_u64), Some(1));

    // A third hello finds slots and queue both full: busy, with a retry
    // hint (the queue keeps the backlog bounded).
    let mut third = std::net::TcpStream::connect(&spec).unwrap();
    write_frame(&mut third, &hello()).unwrap();
    let mut third_reader = BufReader::new(third.try_clone().unwrap());
    let busy = read_frame(&mut third_reader)
        .unwrap()
        .expect("a busy frame");
    assert_eq!(busy.get("kind").and_then(Json::as_str), Some("error"));
    assert!(
        busy.get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("busy"),
        "{}",
        busy.to_text()
    );
    assert!(
        busy.get("retry_after_ms").and_then(Json::as_u64).unwrap() > 0,
        "{}",
        busy.to_text()
    );
    drop(third);

    // When the admitted session leaves, the queued hello takes the slot:
    // the held connection receives the real hello reply and then serves
    // requests like any admitted session.
    drop(admitted);
    let served = read_frame(&mut reader).unwrap().expect("a hello reply");
    assert_eq!(served.get("kind").and_then(Json::as_str), Some("hello"));
    write_frame(
        &mut stream,
        &Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("verify")),
            ("request", two_config_request().to_json().unwrap()),
        ]),
    )
    .unwrap();
    let response = read_frame(&mut reader).unwrap().expect("a response frame");
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("response"),
        "{}",
        response.to_text()
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn version_mismatch_and_bad_frames_are_refused_with_error_frames() {
    let daemon = Daemon::new(DaemonConfig::default());

    // A peer speaking the wrong schema is refused before admission.
    let mut input = Vec::new();
    write_frame(
        &mut input,
        &Json::obj([
            ("schema", Json::int(999u64)),
            ("kind", Json::str("hello")),
            ("proto", Json::str(CLIENT_PROTO)),
        ]),
    )
    .unwrap();
    let mut output = Vec::new();
    let result = daemon.serve_connection(input.as_slice(), &mut output);
    assert!(result.is_err(), "a version mismatch fails the session");
    let mut frames = BufReader::new(output.as_slice());
    let error = read_frame(&mut frames).unwrap().unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("error"));
    assert!(
        error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("version mismatch"),
        "the error frame names the mismatch"
    );

    // A malformed verify frame draws an error frame but the session
    // survives: the next (valid) request on the same connection is
    // served.
    let mut input = Vec::new();
    write_frame(
        &mut input,
        &Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("hello")),
            ("proto", Json::str(CLIENT_PROTO)),
        ]),
    )
    .unwrap();
    write_frame(
        &mut input,
        &Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("verify")),
            ("request", Json::str("not a request document")),
        ]),
    )
    .unwrap();
    write_frame(
        &mut input,
        &Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("verify")),
            ("request", two_config_request().to_json().unwrap()),
        ]),
    )
    .unwrap();
    let mut output = Vec::new();
    daemon
        .serve_connection(input.as_slice(), &mut output)
        .unwrap();
    let mut frames = BufReader::new(output.as_slice());
    let hello = read_frame(&mut frames).unwrap().unwrap();
    assert_eq!(hello.get("kind").and_then(Json::as_str), Some("hello"));
    let error = read_frame(&mut frames).unwrap().unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("error"));
    let response = read_frame(&mut frames).unwrap().unwrap();
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("response"),
        "the session survives a bad request"
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
}
